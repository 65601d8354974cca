// Regression: tearing a station down mid-transmission must leave ZERO
// interference residue behind, in every engine. The deactivation path aborts
// the in-flight transmission through the engine's transmit_ended machinery;
// if any reception's running sum kept a stale contribution, the auditor's
// incremental-vs-recomputed cross-check (and the compensated engine's exact
// accounting) would expose it.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "geo/placement.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation.hpp"
#include "radio/reception.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "helpers/scenario.hpp"
#include "helpers/test_macs.hpp"

namespace drn::dynamics {
namespace {

geo::Placement line3() {
  geo::Placement p;
  p.push_back({0.0, 0.0});
  p.push_back({300.0, 0.0});
  p.push_back({600.0, 0.0});
  return p;
}

sim::SimulatorConfig line_config(radio::InterferenceEngineKind kind) {
  sim::SimulatorConfig cfg{radio::ReceptionCriterion(radio::Hertz{200.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{5.0})};
  cfg.thermal_noise_w = 1.0e-15;
  cfg.engine = kind;
  return cfg;
}

std::unique_ptr<sim::Simulator> make_sim(radio::InterferenceEngineKind kind) {
  const auto placement = line3();
  if (kind == radio::InterferenceEngineKind::kNearFar) {
    radio::NearFarConfig nf;
    nf.cutoff = radio::Meters{2000.0};  // everything is near-field: exact sums
    return std::make_unique<sim::Simulator>(
        radio::make_nearfar_engine(
            placement, std::make_shared<radio::FreeSpacePropagation>(), nf),
        line_config(kind));
  }
  const radio::FreeSpacePropagation model;
  return std::make_unique<sim::Simulator>(
      radio::make_dense_gains(placement, model), line_config(kind));
}

/// Station 1 receives a long packet from station 2 while station 0's
/// interfering transmission is aborted mid-air by deactivation. The scoped
/// audit cross-checks every reception's incremental interference against a
/// from-scratch recomputation at each event — a stale contribution fails it.
void run_abort_under_reception(radio::InterferenceEngineKind kind) {
  auto sim = make_sim(kind);
  {
    testing::ScopedAudit audit(*sim);
    // 2 -> 1: 2 s airtime spanning the whole abort window.
    sim->set_mac(2, std::make_unique<testing::ScriptMac>(
                        std::vector<testing::ScriptedTx>{
                            {0.5, 1, 1.0e-2, 2.0e6}}));
    // 0 -> 1: would run [1.0, 2.0] but dies at 1.5.
    sim->set_mac(0, std::make_unique<testing::ScriptMac>(
                        std::vector<testing::ScriptedTx>{
                            {1.0, 1, 1.0e-3, 1.0e6}}));
    sim->set_mac(1, std::make_unique<testing::IdleMac>());
    sim->run_until(1.5);
    ASSERT_EQ(sim->active_transmissions(), 2u);
    sim->deactivate_station(0);
    EXPECT_EQ(sim->active_transmissions(), 1u);
    sim->run_until(6.0);
    EXPECT_EQ(sim->active_transmissions(), 0u);
    // The aborted transmission's own reception record is charged kAborted.
    EXPECT_EQ(sim->metrics().losses(sim::LossType::kAborted), 1u);
    EXPECT_EQ(sim->metrics().station_leaves(), 1u);
  }
}

TEST(ChurnResidue, AbortMidTransmissionLeavesNoResidueCompensated) {
  run_abort_under_reception(radio::InterferenceEngineKind::kCompensated);
}

TEST(ChurnResidue, AbortMidTransmissionLeavesNoResidueNearFar) {
  run_abort_under_reception(radio::InterferenceEngineKind::kNearFar);
}

/// Engine-level churn soak: a reception held open while 10^4 interferer
/// join/leave cycles (two overlapping, different-magnitude transmissions per
/// cycle, ended in FIFO order so each subtraction happens under a different
/// running sum than its addition) churn the running interference sum. The
/// compensated engine must land back on the recomputed ground truth EXACTLY —
/// zero drift, not just small drift.
TEST(ChurnResidue, CompensatedDriftExactlyZeroAfter1e4JoinLeaveCycles) {
  const auto placement = line3();
  const radio::FreeSpacePropagation model;
  auto engine =
      radio::make_compensated_engine(radio::make_dense_gains(placement, model));
  engine->set_thermal_noise(radio::Watts{1.0e-15});
  const auto noop_sender = [](radio::ReceptionHandle) {};
  const auto noop_affected = [](radio::ReceptionHandle, radio::Watts) {};

  engine->transmit_started(1, 2, radio::Watts{1.0e-2}, noop_sender, noop_affected);
  const auto h = engine->open_reception(1, 1, nullptr);

  std::uint64_t next_tx = 2;
  for (int cycle = 0; cycle < 10000; ++cycle) {
    const std::uint64_t a = next_tx++;
    const std::uint64_t b = next_tx++;
    engine->transmit_started(a, 0, radio::Watts{1.0e-3}, noop_sender, noop_affected);
    engine->transmit_started(b, 0, radio::Watts{3.7e-7}, noop_sender, noop_affected);
    engine->transmit_ended(a, noop_affected);
    engine->transmit_ended(b, noop_affected);
  }

  // Exact equality is the point of the compensated engine: after any number
  // of add/remove rounds the incremental sum IS the recomputed sum.
  EXPECT_EQ(engine->interference(h).value(),
            engine->recomputed_interference(h).value());
  EXPECT_EQ(engine->interference(h).value(), engine->thermal_noise().value());
  engine->close_reception(h);
  engine->transmit_ended(1, noop_affected);
}

/// Same soak through the near/far engine (exact near-field sums when the
/// cutoff covers the whole deployment).
TEST(ChurnResidue, NearFarNoResidueAfterJoinLeaveCycles) {
  const auto placement = line3();
  radio::NearFarConfig nf;
  nf.cutoff = radio::Meters{2000.0};
  auto engine = radio::make_nearfar_engine(
      placement, std::make_shared<radio::FreeSpacePropagation>(), nf);
  engine->set_thermal_noise(radio::Watts{1.0e-15});
  const auto noop_sender = [](radio::ReceptionHandle) {};
  const auto noop_affected = [](radio::ReceptionHandle, radio::Watts) {};

  engine->transmit_started(1, 2, radio::Watts{1.0e-2}, noop_sender, noop_affected);
  const auto h = engine->open_reception(1, 1, nullptr);
  std::uint64_t next_tx = 2;
  for (int cycle = 0; cycle < 10000; ++cycle) {
    const std::uint64_t a = next_tx++;
    engine->transmit_started(a, 0, radio::Watts{1.0e-3}, noop_sender, noop_affected);
    engine->transmit_ended(a, noop_affected);
  }
  EXPECT_NEAR(engine->interference(h).value(),
              engine->recomputed_interference(h).value(), 1.0e-24);
  engine->close_reception(h);
  engine->transmit_ended(1, noop_affected);
}

}  // namespace
}  // namespace drn::dynamics
