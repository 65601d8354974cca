// Compile-time checks of the unit algebra in common/units.hpp: every legal
// operation's result TYPE and VALUE, pinned with static_assert so a refactor
// that changes either breaks this translation unit rather than a simulation.
// The forbidden half of the contract (what must NOT compile) lives in
// tests/static/ as negative-compile probes.
#include "common/units.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

namespace drn::units {
namespace {

template <class Expected, class Actual>
constexpr bool is = std::is_same_v<Expected, std::remove_const_t<Actual>>;

// --- result types of the cross-dimension operators ----------------------

static_assert(is<LinearGain, decltype(Watts{} / Watts{})>);
static_assert(is<Watts, decltype(Watts{} * LinearGain{})>);
static_assert(is<Watts, decltype(LinearGain{} * Watts{})>);
static_assert(is<Watts, decltype(Watts{} / LinearGain{})>);
static_assert(is<LinearGain, decltype(Hertz{} / BitsPerSecond{})>);
static_assert(is<BitsPerSecond, decltype(Hertz{} / LinearGain{})>);
static_assert(is<double, decltype(BitsPerSecond{} / Hertz{})>);
static_assert(is<Seconds, decltype(Bits{} / BitsPerSecond{})>);
static_assert(is<BitsPerSecond, decltype(Bits{} / Seconds{})>);
static_assert(is<Bits, decltype(BitsPerSecond{} * Seconds{})>);
static_assert(is<Seconds, decltype(Slots{} * Seconds{})>);
static_assert(is<Seconds, decltype(Seconds{} * Slots{})>);
static_assert(is<LinearGain, decltype(LinearGain{} * LinearGain{})>);
// The one like-over-like ratio that keeps a dimension besides Watts / Watts.
static_assert(is<LinearGain, decltype(LinearGain{} / LinearGain{})>);

// Same-dimension ratios are dimensionless.
static_assert(is<double, decltype(Seconds{} / Seconds{})>);
static_assert(is<double, decltype(Meters{} / Meters{})>);
static_assert(is<double, decltype(Hertz{} / Hertz{})>);
static_assert(is<double, decltype(Decibels{} / Decibels{})>);
static_assert(is<double, decltype(Slots{} / Slots{})>);

// --- values: the algebra is plain double arithmetic, no scaling ----------

static_assert((Seconds{1.5} + Seconds{0.25}).value() == 1.75);
static_assert((Seconds{1.5} - Seconds{0.25}).value() == 1.25);
static_assert((-Seconds{2.0}).value() == -2.0);
static_assert((Watts{6.0} / Watts{3.0}).value() == 2.0);
static_assert((Watts{8.0} * LinearGain{0.25}).value() == 2.0);
static_assert((Hertz{2.0e8} / BitsPerSecond{1.0e6}).value() == 200.0);
static_assert((Hertz{2.0e8} / LinearGain{200.0}).value() == 1.0e6);
static_assert((Bits{1.0e4} / BitsPerSecond{2.0e6}).value() == 0.005);
static_assert((Slots{3.0} * Seconds{0.01}).value() == 0.03);

// Ordering exists; equality deliberately does not (see tests/static/).
static_assert(Seconds{1.0} < Seconds{2.0});
static_assert(Watts{2.0} >= Watts{2.0});
static_assert(Decibels{-3.0} <= Decibels{0.0});

// Default construction is zero for every unit.
static_assert(Seconds{}.value() == 0.0);
static_assert(Watts{}.value() == 0.0);

// Zero-overhead claim: each type is exactly one double, trivially copyable.
static_assert(sizeof(Watts) == sizeof(double));
static_assert(sizeof(Decibels) == sizeof(double));
static_assert(sizeof(Seconds) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Watts>);
static_assert(std::is_trivially_copyable_v<Slots>);

// --- the runtime bridges (not constexpr: log10/pow) ----------------------

TEST(UnitsAlgebra, DbLinearBridgesMatchClosedForm) {
  EXPECT_DOUBLE_EQ(Decibels{5.0}.to_linear().value(), std::pow(10.0, 0.5));
  EXPECT_DOUBLE_EQ(LinearGain{100.0}.to_db().value(), 20.0);
}

TEST(UnitsAlgebra, BridgeContracts) {
  EXPECT_THROW((void)LinearGain{0.0}.to_db(), ContractViolation);
  EXPECT_THROW((void)LinearGain{-1.0}.to_db(), ContractViolation);
}

TEST(UnitsAlgebra, FormatSpellsTheUnit) {
  EXPECT_EQ(format(Seconds{0.25}), "0.25 s");
  EXPECT_EQ(format(Watts{1.0e-9}), "1e-09 W");
  EXPECT_EQ(format(Decibels{23.0}), "23 dB");
  EXPECT_EQ(format(Slots{4.76}), "4.76 slots");
}

}  // namespace
}  // namespace drn::units
