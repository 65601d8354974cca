#include "radio/propagation.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/expects.hpp"

namespace drn::radio {
namespace {

TEST(PowerLaw, FreeSpaceInverseSquare) {
  const FreeSpacePropagation model;
  const geo::Vec2 origin{0.0, 0.0};
  EXPECT_DOUBLE_EQ(model.power_gain(origin, {1.0, 0.0}).value(), 1.0);
  EXPECT_DOUBLE_EQ(model.power_gain(origin, {2.0, 0.0}).value(), 0.25);
  EXPECT_DOUBLE_EQ(model.power_gain(origin, {10.0, 0.0}).value(), 0.01);
}

TEST(PowerLaw, SixDbPerDoubling) {
  // Section 4: "Free-space radio propagation falls off by a factor of four,
  // or 6 dB, for each doubling in distance."
  const FreeSpacePropagation model;
  LinearGain prev = model.gain_at(Meters{1.0});
  for (double r = 2.0; r <= 64.0; r *= 2.0) {
    const LinearGain g = model.gain_at(Meters{r});
    EXPECT_DOUBLE_EQ((prev / g).value(), 4.0);
    prev = g;
  }
}

TEST(PowerLaw, NearFieldClamp) {
  // Closer than 0.1 m every pair sees the gain at 0.1 m.
  const PowerLawPropagation model(2.0);
  EXPECT_DOUBLE_EQ(model.gain_at(Meters{0.0}).value(),
                   model.gain_at(Meters{0.1}).value());
  EXPECT_DOUBLE_EQ(model.gain_at(Meters{0.05}).value(), 100.0);  // 1/(0.1^2)
  EXPECT_LT(model.gain_at(Meters{0.2}).value(), 100.0);
}

TEST(PowerLaw, GeneralExponent) {
  const PowerLawPropagation model(4.0);
  EXPECT_DOUBLE_EQ(model.gain_at(Meters{2.0}).value(), 1.0 / 16.0);
}

TEST(PowerLaw, Symmetric) {
  const FreeSpacePropagation model;
  const geo::Vec2 a{1.0, 2.0};
  const geo::Vec2 b{-4.0, 7.0};
  EXPECT_DOUBLE_EQ(model.power_gain(a, b).value(),
                   model.power_gain(b, a).value());
}

TEST(PowerLaw, Contracts) {
  EXPECT_THROW(PowerLawPropagation(-1.0), ContractViolation);
  const FreeSpacePropagation model;
  EXPECT_THROW((void)model.gain_at(Meters{-1.0}), ContractViolation);
}

TEST(DualSlope, FreeSpaceBeforeBreakpoint) {
  const DualSlopePropagation model(Meters{100.0});
  const FreeSpacePropagation free_space;
  for (double r : {1.0, 10.0, 50.0, 100.0})
    EXPECT_DOUBLE_EQ(model.gain_at(Meters{r}).value(),
                     free_space.gain_at(Meters{r}).value());
}

TEST(DualSlope, SteeperBeyondBreakpoint) {
  const DualSlopePropagation model(Meters{100.0});
  // Continuous at the breakpoint.
  EXPECT_NEAR(model.gain_at(Meters{100.0}).value(), 1.0e-4, 1e-15);
  // 12 dB per doubling beyond it (alpha = 4).
  EXPECT_DOUBLE_EQ(
      (model.gain_at(Meters{100.0}) / model.gain_at(Meters{200.0})).value(),
      16.0);
  EXPECT_DOUBLE_EQ(
      (model.gain_at(Meters{200.0}) / model.gain_at(Meters{400.0})).value(),
      16.0);
}

TEST(DualSlope, AlwaysAtOrBelowFreeSpace) {
  // The Section 3.5 envelope argument: obstruction only attenuates.
  const DualSlopePropagation model(Meters{50.0});
  const FreeSpacePropagation free_space;
  for (double r = 1.0; r < 2000.0; r *= 1.7)
    EXPECT_LE(model.gain_at(Meters{r}).value(),
              free_space.gain_at(Meters{r}).value() * (1.0 + 1e-12));
}

TEST(DualSlope, SymmetricAndVectorised) {
  const DualSlopePropagation model(Meters{100.0});
  const geo::Vec2 a{0.0, 0.0};
  const geo::Vec2 b{300.0, 400.0};
  EXPECT_DOUBLE_EQ(model.power_gain(a, b).value(),
                   model.power_gain(b, a).value());
  EXPECT_DOUBLE_EQ(model.power_gain(a, b).value(),
                   model.gain_at(Meters{500.0}).value());
}

TEST(DualSlope, Contracts) {
  EXPECT_THROW(DualSlopePropagation(Meters{0.0}), ContractViolation);
  EXPECT_THROW(DualSlopePropagation(Meters{0.05}),
               ContractViolation);  // breakpoint below the near-field clamp
}

TEST(Shadowing, DeterministicAndSymmetric) {
  auto base = std::make_shared<FreeSpacePropagation>();
  const LogNormalShadowing model(base, Decibels{8.0}, 1234);
  const geo::Vec2 a{0.0, 0.0};
  const geo::Vec2 b{30.0, 40.0};
  const double g1 = model.power_gain(a, b).value();
  EXPECT_DOUBLE_EQ(g1, model.power_gain(a, b).value());  // repeatable
  EXPECT_DOUBLE_EQ(g1, model.power_gain(b, a).value());  // symmetric
}

TEST(Shadowing, SeedChangesShadow) {
  auto base = std::make_shared<FreeSpacePropagation>();
  const LogNormalShadowing m1(base, Decibels{8.0}, 1);
  const LogNormalShadowing m2(base, Decibels{8.0}, 2);
  EXPECT_NE(m1.power_gain({0, 0}, {10, 0}).value(),
            m2.power_gain({0, 0}, {10, 0}).value());
}

TEST(Shadowing, ZeroSigmaIsTransparent) {
  auto base = std::make_shared<FreeSpacePropagation>();
  const LogNormalShadowing model(base, Decibels{0.0}, 77);
  EXPECT_DOUBLE_EQ(model.power_gain({0, 0}, {5, 0}).value(),
                   base->power_gain({0, 0}, {5, 0}).value());
}

TEST(Shadowing, BoostCappedAtThreeSigma) {
  auto base = std::make_shared<FreeSpacePropagation>();
  const Decibels sigma{6.0};
  const LogNormalShadowing model(base, sigma, 99);
  // Over many pairs, no gain exceeds base * 10^(3*sigma/10).
  const double cap = (3.0 * sigma).to_linear().value();
  for (int i = 1; i < 200; ++i) {
    const geo::Vec2 b{static_cast<double>(i), 1.0};
    EXPECT_LE(model.power_gain({0, 0}, b).value(),
              base->power_gain({0, 0}, b).value() * cap * (1.0 + 1e-12));
  }
}

TEST(Shadowing, NullBaseRejected) {
  EXPECT_THROW(LogNormalShadowing(nullptr, Decibels{1.0}, 0),
               ContractViolation);
}

}  // namespace
}  // namespace drn::radio
