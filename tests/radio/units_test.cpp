#include "radio/units.hpp"

#include <gtest/gtest.h>

#include "common/expects.hpp"

namespace drn::radio {
namespace {

TEST(Units, KnownDecibelValues) {
  EXPECT_DOUBLE_EQ(to_db(1.0), 0.0);
  EXPECT_DOUBLE_EQ(to_db(10.0), 10.0);
  EXPECT_DOUBLE_EQ(to_db(100.0), 20.0);
  EXPECT_NEAR(to_db(2.0), 3.0103, 1e-4);
  EXPECT_NEAR(to_db(0.5), -3.0103, 1e-4);
  EXPECT_NEAR(to_db(4.0), 6.0206, 1e-4);  // the paper's "6 dB per doubling"
}

TEST(Units, RoundTrip) {
  for (double db : {-30.0, -5.0, 0.0, 2.5, 17.0, 40.0})
    EXPECT_NEAR(to_db(from_db(db)), db, 1e-12);
}

TEST(Units, ToDbRequiresPositive) {
  EXPECT_THROW((void)to_db(0.0), ContractViolation);
  EXPECT_THROW((void)to_db(-1.0), ContractViolation);
}

TEST(Units, ThermalNoiseKtb) {
  // kT at 290 K is about 4.00e-21 W/Hz (-174 dBm/Hz).
  EXPECT_NEAR(thermal_noise(Hertz{1.0}).value(), 4.0039e-21, 1e-24);
  // About -114 dBm over 1 MHz (dBm: decibels relative to 1 mW).
  EXPECT_NEAR(to_db(thermal_noise(Hertz{1.0e6}).value() / 1e-3), -114.0, 0.1);
  // Linear in bandwidth.
  EXPECT_DOUBLE_EQ(thermal_noise(Hertz{2.0e6}).value(),
                   2.0 * thermal_noise(Hertz{1.0e6}).value());
}

TEST(Units, ThermalNoiseContracts) {
  EXPECT_THROW((void)thermal_noise(Hertz{0.0}), ContractViolation);
  EXPECT_THROW((void)thermal_noise(Hertz{1.0}, 0.0), ContractViolation);
}

TEST(Units, PaperSignificanceExample) {
  // Section 7.3: adding a -10 dB (relative) signal to a 20 dB signal gives
  // 20.4 dB — "a barely significant change".
  const double sum = from_db(20.0) + from_db(10.0);
  EXPECT_NEAR(to_db(sum), 20.414, 1e-3);
  // And a signal one quarter of the interference level raises it ~1 dB.
  EXPECT_NEAR(to_db(1.0 + 0.25), 0.969, 1e-3);
}

}  // namespace
}  // namespace drn::radio
