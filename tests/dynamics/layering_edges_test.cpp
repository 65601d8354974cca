// Dynamics × layering edge cases, asserted through the layer seams the
// Simulator facade now exposes (medium()/host()): the mobility RF-idle
// refusal is the medium's rf_idle rule, double-deactivation and
// clock-rate-on-a-dead-station are StationHost lifecycle contract
// violations. These paths cross layer boundaries (facade orchestrates
// medium teardown before host teardown), so they pin the seams the
// god-object split introduced.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/expects.hpp"
#include "geo/placement.hpp"
#include "geo/vec2.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation.hpp"
#include "radio/propagation_matrix.hpp"
#include "radio/reception.hpp"
#include "radio/units.hpp"
#include "sim/simulator.hpp"
#include "helpers/test_macs.hpp"

namespace drn::dynamics {
namespace {

using drn::testing::IdleMac;
using drn::testing::ScriptMac;
using drn::testing::ScriptedTx;

sim::SimulatorConfig test_config() {
  sim::SimulatorConfig cfg{radio::ReceptionCriterion(
      radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0})};
  cfg.thermal_noise_w = 1.0e-15;
  return cfg;
}

geo::Placement pair_placement() {
  geo::Placement p;
  p.push_back({0.0, 0.0});
  p.push_back({200.0, 0.0});
  return p;
}

/// Station 0 airs a 10 ms packet to station 1 from t=0. While it is on the
/// air, neither endpoint may move: the sender is radiating, the receiver has
/// an open reception record, and in-flight engine state references both
/// stations' gains. Once the packet ends, both moves go through.
TEST(LayeringEdges, MoveRefusedWhileReceptionOpenAtMover) {
  const auto placement = pair_placement();
  const auto model = std::make_shared<radio::FreeSpacePropagation>();
  auto engine = radio::make_compensated_engine(
      radio::make_dense_gains(placement, *model));
  engine->enable_mobility(placement, model, radio::LinearGain{1.0});
  sim::Simulator sim(std::move(engine), test_config());
  sim.set_mac(0, std::make_unique<ScriptMac>(
                     std::vector<ScriptedTx>{{0.0, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());

  sim.run_until(0.005);  // mid-air
  ASSERT_EQ(sim.active_transmissions(), 1u);
  // The receiver: an open reception record pins it (medium's rf_idle rule).
  EXPECT_EQ(sim.medium().open_receptions_at(1), 1);
  EXPECT_FALSE(sim.medium().rf_idle(1));
  EXPECT_FALSE(sim.try_move_station(1, {250.0, 0.0}));
  // The sender: its own radiating transmitter pins it.
  EXPECT_TRUE(sim.medium().station_transmitting(0));
  EXPECT_FALSE(sim.medium().rf_idle(0));
  EXPECT_FALSE(sim.try_move_station(0, {50.0, 0.0}));

  sim.run_until(0.02);  // packet ended; records closed
  EXPECT_EQ(sim.medium().open_receptions_at(1), 0);
  EXPECT_TRUE(sim.medium().rf_idle(0));
  EXPECT_TRUE(sim.medium().rf_idle(1));
  EXPECT_TRUE(sim.try_move_station(1, {250.0, 0.0}));
  EXPECT_TRUE(sim.try_move_station(0, {50.0, 0.0}));
}

TEST(LayeringEdges, ClockRateOnDeactivatedStationIsAContractViolation) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, test_config());
  sim.set_mac(0, std::make_unique<IdleMac>());
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(0.01);

  sim.deactivate_station(1);
  EXPECT_FALSE(sim.host().station_active(1));
  // The drift ramp has no MAC to talk to: the host rejects the dispatch.
  EXPECT_THROW(sim.notify_clock_rate(1, 50.0), ContractViolation);
  // The surviving station still takes the notification.
  sim.notify_clock_rate(0, 50.0);
}

TEST(LayeringEdges, DoubleDeactivationIsAContractViolation) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, test_config());
  sim.set_mac(0, std::make_unique<IdleMac>());
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(0.01);

  sim.deactivate_station(1);
  EXPECT_FALSE(sim.host().station_active(1));
  // The second teardown must throw BEFORE any layer mutates: the facade
  // checks the host's activation state ahead of medium-side RF teardown.
  EXPECT_THROW(sim.deactivate_station(1), ContractViolation);
  // A clean rejoin is still possible afterwards.
  sim.activate_station(1, std::make_unique<IdleMac>());
  EXPECT_TRUE(sim.host().station_active(1));
  EXPECT_EQ(sim.metrics().station_joins(), 1u);
}

}  // namespace
}  // namespace drn::dynamics
