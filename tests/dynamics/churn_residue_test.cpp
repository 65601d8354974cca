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

/// Near/far configurations for the 300 m line. A 2000 m cutoff puts every
/// pair in the near field (exact sums). A 250 m cutoff over 24 m cells gives
/// a near range of 11 cells while neighbouring stations sit 12 and 13 cells
/// apart, so every pair, the reception's own signal included, is in the far
/// field. (The default cutoff / 4 cells would leave them 4 and 5 cells
/// apart, within the near range of 5.)
radio::NearFarConfig all_near() {
  radio::NearFarConfig nf;
  nf.cutoff = radio::Meters{2000.0};
  return nf;
}
radio::NearFarConfig all_far() {
  radio::NearFarConfig nf;
  nf.cutoff = radio::Meters{250.0};
  nf.cell = radio::Meters{24.0};
  return nf;
}

std::unique_ptr<sim::Simulator> make_sim(radio::InterferenceEngineKind kind,
                                         radio::NearFarConfig nf = all_near()) {
  const auto placement = line3();
  if (kind == radio::InterferenceEngineKind::kNearFar) {
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
void run_abort_under_reception(radio::InterferenceEngineKind kind,
                               radio::NearFarConfig nf = all_near()) {
  auto sim = make_sim(kind, nf);
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
  run_abort_under_reception(radio::InterferenceEngineKind::kNearFar,
                            all_far());
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

/// Same soak through the near/far engine: once with exact near-field sums
/// (the cutoff covers the whole deployment), once with the interferer and
/// the reception's own signal both folded into the far-field din.
void soak_nearfar(radio::NearFarConfig nf, bool far) {
  const auto placement = line3();
  auto engine = radio::make_nearfar_engine(
      placement, std::make_shared<radio::FreeSpacePropagation>(), nf);
  engine->set_thermal_noise(radio::Watts{1.0e-15});
  const auto noop_sender = [](radio::ReceptionHandle) {};
  double first_watts = 0.0;
  const auto record = [&first_watts](radio::ReceptionHandle, radio::Watts w) {
    if (first_watts == 0.0) first_watts = w.value();
  };

  engine->transmit_started(1, 2, radio::Watts{1.0e-2}, noop_sender, record);
  const auto h = engine->open_reception(1, 1, nullptr);
  std::uint64_t next_tx = 2;
  for (int cycle = 0; cycle < 10000; ++cycle) {
    const std::uint64_t a = next_tx++;
    engine->transmit_started(a, 0, radio::Watts{1.0e-3}, noop_sender, record);
    engine->transmit_ended(a, record);
  }
  // A far interferer reaches the reception through cell-centre gains, not
  // its own pair gain.
  EXPECT_EQ(first_watts != engine->gain(1, 0) * 1.0e-3, far);
  EXPECT_NEAR(engine->interference(h).value(),
              engine->recomputed_interference(h).value(), 1.0e-24);
  engine->close_reception(h);
  engine->transmit_ended(1, record);
}

TEST(ChurnResidue, NearFarNoResidueAfterJoinLeaveCycles) {
  soak_nearfar(all_near(), false);
  soak_nearfar(all_far(), true);
}

}  // namespace
}  // namespace drn::dynamics
