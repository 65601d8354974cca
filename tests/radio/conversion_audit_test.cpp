// Conversion-site audit (the unit layer's runtime complement): every dB <->
// linear conversion the library performs, and its thermal noise floor,
// pinned against closed-form values from the paper's equations. A regression
// here means a conversion site drifted — the exact class of silent bug the
// strong types exist to prevent.
//
// Paper references (Shepard, SIGCOMM '96):
//   Eq. 3-4   C = W log2(1 + S/N); beta margin on the required S/N
//   Eq. 15    S/N = 1 / (eta ln M) nearest-neighbour scaling
//   Sec. 6    W/C processing gain, "20 to 25 dB"
#include <gtest/gtest.h>

#include <cmath>

#include "core/clock.hpp"
#include "radio/noise_growth.hpp"
#include "radio/propagation.hpp"
#include "radio/reception.hpp"
#include "radio/units.hpp"

namespace drn::radio {
namespace {

TEST(ConversionAudit, RawBoundaryHelpersMatchClosedForm) {
  // The two sanctioned raw-double converters in radio/units.hpp.
  EXPECT_DOUBLE_EQ(from_db(5.0), std::pow(10.0, 0.5));
  EXPECT_DOUBLE_EQ(from_db(0.0), 1.0);
  EXPECT_DOUBLE_EQ(to_db(100.0), 20.0);
}

TEST(ConversionAudit, RawAndTypedConvertersAreBitIdentical) {
  // The typed bridges must compute the same doubles as the historical raw
  // helpers, for any value — the migration contract.
  for (double db : {-31.7, -5.0, 0.0, 3.0, 5.0, 23.0, 60.0}) {
    EXPECT_EQ(Decibels{db}.to_linear().value(), from_db(db));
  }
  for (double lin : {1.0e-12, 0.5, 1.0, 200.0, 7.3e9}) {
    EXPECT_EQ(LinearGain{lin}.to_db().value(), to_db(lin));
  }
}

TEST(ConversionAudit, DbRoundTripsAreStable) {
  for (double db : {-120.0, -15.5, 0.0, 5.0, 23.0}) {
    EXPECT_NEAR(Decibels{db}.to_linear().to_db().value(), db, 1e-12);
  }
}

TEST(ConversionAudit, ThermalNoiseIsBoltzmannKTB) {
  // kTB at 290 K over 200 MHz — the scheme's default noise floor.
  const Hertz w{200.0e6};
  EXPECT_DOUBLE_EQ(thermal_noise(w).value(),
                   kBoltzmann * kStandardTemperatureK * 200.0e6);
  // About -80.9 dBm: the textbook -174 dBm/Hz + 10 log10(2e8).
  EXPECT_NEAR(to_db(thermal_noise(w).value() / 1e-3),
              -174.0 + 10.0 * std::log10(200.0e6), 0.05);
}

TEST(ConversionAudit, RequiredSnrIsMarginTimesShannon) {
  // Eq. 4 with the paper's numbers: C/W = 1e6/1e8 = 0.01 and beta = 5 dB
  // gives S/N = 10^0.5 * (2^0.01 - 1).
  const ReceptionCriterion c(Hertz{1.0e8}, BitsPerSecond{1.0e6},
                             Decibels{5.0});
  EXPECT_DOUBLE_EQ(c.required_snr().value(),
                   from_db(5.0) * (std::exp2(0.01) - 1.0));
  // And the dB view converts back exactly.
  EXPECT_NEAR(c.required_snr_db().to_linear().value(),
              c.required_snr().value(), 1e-12 * c.required_snr().value());
}

TEST(ConversionAudit, ProcessingGainSection6) {
  // Sec. 6: spreading 1 Mb/s over 200 MHz is W/C = 200 = 23.0103 dB —
  // inside the paper's "20 to 25 dB" window.
  const ReceptionCriterion c(Hertz{200.0e6}, BitsPerSecond{1.0e6});
  EXPECT_DOUBLE_EQ(c.processing_gain().value(), 200.0);
  EXPECT_NEAR(c.processing_gain_db().value(), 10.0 * std::log10(200.0),
              1e-12);
  EXPECT_NEAR(c.processing_gain_db().value(), 23.0103, 1e-4);
}

TEST(ConversionAudit, ShadowingSigmaScalesInDb) {
  // Log-normal shadowing applies 10^(z*sigma/10): doubling sigma squares the
  // linear factor for the same site draw (same base, same seed).
  auto base = std::make_shared<FreeSpacePropagation>();
  const LogNormalShadowing narrow(base, Decibels{4.0}, 7);
  const LogNormalShadowing wide(base, Decibels{8.0}, 7);
  const geo::Vec2 a{0.0, 0.0};
  const geo::Vec2 b{37.0, 19.0};
  const double f_narrow =
      (narrow.power_gain(a, b) / base->power_gain(a, b)).value();
  const double f_wide =
      (wide.power_gain(a, b) / base->power_gain(a, b)).value();
  EXPECT_NEAR(f_wide, f_narrow * f_narrow, 1e-12 * f_wide);
}

TEST(ConversionAudit, Equation15SnrInDb) {
  // Eq. 15: S/N = 1/(eta ln M). At M = 1e6, eta = 1: ln(1e6) = 13.8155,
  // i.e. -11.4 dB (the number quoted in Section 4).
  const double lin = nearest_neighbor_snr(1000000, 1.0).value();
  EXPECT_DOUBLE_EQ(lin, 1.0 / std::log(1.0e6));
  EXPECT_DOUBLE_EQ(nearest_neighbor_snr_db(1000000, 1.0).value(), to_db(lin));
  EXPECT_NEAR(nearest_neighbor_snr_db(1000000, 1.0).value(), -11.4, 0.05);
}

TEST(ConversionAudit, ClockSecondsRoundTrip) {
  // Seconds flow through StationClock without hidden scaling: local/global
  // are exact affine inverses in the same unit.
  const core::StationClock c(core::Seconds{4211.007}, 1.0 - 22e-6);
  for (double g : {0.0, 1.0, 3600.0, -500.25}) {
    EXPECT_NEAR(c.global(c.local(core::Seconds{g})).value(), g,
                1e-9 * std::max(1.0, std::abs(g)));
  }
}

}  // namespace
}  // namespace drn::radio
