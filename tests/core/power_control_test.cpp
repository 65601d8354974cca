#include "core/power_control.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/expects.hpp"

namespace drn::core {
namespace {

TEST(PowerControl, DeliversConstantReceivedPower) {
  // Section 6.1: "transmit with sufficient power to deliver a constant
  // pre-determined amount of power to the intended receiver."
  const PowerControl pc(1.0e-9, 10.0);
  for (double gain : {1.0e-3, 1.0e-6, 1.0e-9}) {
    const double p = pc.transmit_power_w(gain);
    EXPECT_DOUBLE_EQ(p * gain, 1.0e-9) << gain;
  }
}

TEST(PowerControl, ClampsAtMaxPower) {
  const PowerControl pc(1.0e-9, 10.0);
  EXPECT_DOUBLE_EQ(pc.transmit_power_w(1.0e-12), 10.0);  // would need 1000 W
}

TEST(PowerControl, ReachabilityBoundary) {
  const PowerControl pc(1.0e-9, 1.0);
  EXPECT_TRUE(pc.reachable(1.0e-9));       // exactly at the limit
  EXPECT_TRUE(pc.reachable(1.0e-8));
  EXPECT_FALSE(pc.reachable(0.99e-9));
  // The rule is gain >= min_gain(), exact to the last bit.
  const PowerControl multihop(1.0e-9, 1.6e-4);
  EXPECT_DOUBLE_EQ(multihop.min_gain(), 1.0e-9 / 1.6e-4);
  EXPECT_TRUE(multihop.reachable(multihop.min_gain()));
  EXPECT_FALSE(multihop.reachable(std::nextafter(multihop.min_gain(), 0.0)));
}

TEST(PowerControl, NearerNeighborsGetLessPower) {
  // Quadrupled density -> halved distances -> 4x gain -> quarter power
  // (Section 6.1's constant-power-density argument).
  const PowerControl pc(1.0e-9, 10.0);
  const double far_gain = 1.0e-6;
  const double near_gain = 4.0e-6;
  EXPECT_DOUBLE_EQ(pc.transmit_power_w(near_gain),
                   pc.transmit_power_w(far_gain) / 4.0);
}

TEST(PowerControl, FixedModeIgnoresGain) {
  const PowerControl pc = PowerControl::fixed(2.0);
  EXPECT_FALSE(pc.controlled());
  EXPECT_DOUBLE_EQ(pc.transmit_power_w(1.0e-3), 2.0);
  EXPECT_DOUBLE_EQ(pc.transmit_power_w(1.0e-9), 2.0);
  EXPECT_TRUE(pc.reachable(1.0e-12));
  EXPECT_DOUBLE_EQ(pc.min_gain(), 0.0);
}

TEST(PowerControl, Accessors) {
  const PowerControl pc(2.0e-9, 5.0);
  EXPECT_TRUE(pc.controlled());
  EXPECT_DOUBLE_EQ(pc.target_received_w(), 2.0e-9);
  EXPECT_DOUBLE_EQ(pc.max_power_w(), 5.0);
}

TEST(PowerControl, Contracts) {
  EXPECT_THROW(PowerControl(0.0, 1.0), ContractViolation);
  EXPECT_THROW(PowerControl(1.0, 0.0), ContractViolation);
  EXPECT_THROW(PowerControl::fixed(0.0), ContractViolation);
  const PowerControl pc(1.0e-9, 1.0);
  EXPECT_THROW((void)pc.transmit_power_w(0.0), ContractViolation);
  EXPECT_THROW((void)pc.reachable(-1.0), ContractViolation);
}

}  // namespace
}  // namespace drn::core
