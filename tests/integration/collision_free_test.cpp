// The paper's headline property (Sections 1, 7): the channel access scheme
// is FREE of packet loss due to collisions — no Type 2 or Type 3 losses ever,
// and no Type 1 losses when processing gain covers the local interference —
// across random topologies, clock phases, drifting clocks and fitted clock
// models, with only a single transmission per hop and no global coordination.
#include <gtest/gtest.h>

#include "core/network_builder.hpp"
#include "geo/placement.hpp"
#include "helpers/scenario.hpp"
#include "radio/propagation.hpp"
#include "runner/scenario.hpp"

namespace drn::testing {
namespace {

class CollisionFree : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CollisionFree, RandomNetworkLosesNothingToCollisions) {
  runner::Trial trial({.stations = 40,
                       .region_m = 1000.0,
                       .rate_pps = 150.0,
                       .duration_s = 2.0,
                       .audit = true},
                      GetParam());

  // Fraction of ordered pairs the topology can route at all (random discs
  // leave some fringe stations disconnected at this reach).
  const std::size_t n = trial.tables().size();
  std::size_t routable = 0;
  for (StationId a = 0; a < n; ++a)
    for (StationId b = 0; b < n; ++b)
      if (a != b && trial.tables().next_hop(a, b) != kNoStation) ++routable;
  const double routable_fraction =
      static_cast<double>(routable) / static_cast<double>(n * (n - 1));

  expect_clean_audit(trial, trial.run());
  const auto& m = trial.simulator().metrics();

  EXPECT_GT(m.offered(), 100u);
  EXPECT_EQ(m.losses(sim::LossType::kType2), 0u) << "seed " << GetParam();
  EXPECT_EQ(m.losses(sim::LossType::kType3), 0u) << "seed " << GetParam();
  EXPECT_EQ(m.losses(sim::LossType::kType1), 0u) << "seed " << GetParam();
  // Everything offered is either delivered or was unroutable (disconnected
  // fringe stations) — never lost on air.
  EXPECT_EQ(m.delivered() + m.mac_drops(), m.offered());
  EXPECT_GT(routable_fraction, 0.5);
  // Delivery equals the routable share of the random traffic draw (binomial
  // fluctuation allowance).
  EXPECT_NEAR(m.delivery_ratio(), routable_fraction, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollisionFree,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

class ReceiveFractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(ReceiveFractionSweep, CollisionFreedomHoldsAcrossDutyCycles) {
  auto cfg = runner::multihop_config();
  cfg.receive_fraction = GetParam();
  runner::Trial trial({.stations = 30,
                       .region_m = 900.0,
                       .rate_pps = 100.0,
                       .duration_s = 2.0,
                       .net = cfg,
                       .audit = true},
                      7);
  expect_clean_audit(trial, trial.run());
  const auto& m = trial.simulator().metrics();
  EXPECT_EQ(m.losses(sim::LossType::kType2), 0u) << "p " << GetParam();
  EXPECT_EQ(m.losses(sim::LossType::kType3), 0u) << "p " << GetParam();
  EXPECT_GT(m.delivered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Fractions, ReceiveFractionSweep,
                         ::testing::Values(0.2, 0.3, 0.4, 0.5));

TEST(CollisionFreeEdge, InsufficientGuardBreaksTheInvariant) {
  // Falsification control: with drifting clocks, noisy rendezvous and NO
  // guard, predictions miss receive windows and Type 3 losses reappear —
  // demonstrating the guard is load-bearing, not decorative.
  auto cfg = runner::multihop_config();
  cfg.guard_fraction = 0.0;
  cfg.rendezvous_noise_s = 2.0e-3;  // 20% of a slot: hopeless predictions
  cfg.max_drift_ppm = 100.0;
  runner::Trial trial({.stations = 30,
                       .region_m = 900.0,
                       .rate_pps = 150.0,
                       .duration_s = 2.0,
                       .net = cfg,
                       .audit = true},
                      13);
  expect_clean_audit(trial, trial.run());
  const auto& m = trial.simulator().metrics();
  EXPECT_GT(m.total_hop_losses(), 0u);
}

TEST(CollisionFreeEdge, RespectingThirdPartyWindowsPreventsType1) {
  // Section 7.3's mechanism, isolated. Topology: A blasts a FAR station B at
  // high power; C sits 10 m from A and concurrently receives low-power
  // packets from D. A's transmissions deliver ~1.6 uW to C — four orders of
  // magnitude over C's ~0.1 nW interference budget — so any overlap with
  // C's receptions is fatal (Type 1). With the respect rule, A keeps its
  // transmissions out of C's receive windows and nothing is lost.
  auto run = [](bool respect) {
    const geo::Placement placement = {
        {0.0, 0.0},     // A
        {400.0, 0.0},   // B (far: A must use high power)
        {0.0, 10.0},    // C (very near A)
        {0.0, 60.0},    // D (sends to C at low power)
    };
    const radio::FreeSpacePropagation model;
    const auto gains =
        radio::PropagationMatrix::from_placement(placement, model);

    core::ScheduledNetworkConfig cfg;
    cfg.target_received_w = 1.0e-9;
    cfg.max_power_w = 2.0e-4;
    cfg.exact_clock_models = true;
    cfg.respect_third_party_windows = respect;
    Rng build_rng(61);
    auto net = core::build_scheduled_network(
        gains, runner::scheme_criterion(), cfg, build_rng);

    sim::SimulatorConfig sc{runner::scheme_criterion()};
    sim::Simulator sim(gains, sc);
    ScopedAudit audited(sim);
    for (StationId s = 0; s < 4; ++s) sim.set_mac(s, std::move(net.macs[s]));

    for (int i = 0; i < 150; ++i) {
      sim::Packet ab;
      ab.source = 0;
      ab.destination = 1;
      ab.size_bits = net.packet_bits;
      sim.inject(0.02 * i, ab);
      sim::Packet dc;
      dc.source = 3;
      dc.destination = 2;
      dc.size_bits = net.packet_bits;
      sim.inject(0.02 * i, dc);
    }
    sim.run_until(60.0);
    return std::pair{sim.metrics().losses(sim::LossType::kType1),
                     sim.metrics().delivered()};
  };

  const auto [losses_respect, delivered_respect] = run(true);
  EXPECT_EQ(losses_respect, 0u);
  EXPECT_EQ(delivered_respect, 300u);

  const auto [losses_rude, delivered_rude] = run(false);
  EXPECT_GT(losses_rude, 0u);  // the falsification control
  EXPECT_LT(delivered_rude, 300u);
}

TEST(CollisionFreeEdge, SingleTransmissionPerHop) {
  // "at each hop requires no per-packet transmissions other than the single
  // transmission used to convey the packet": hop attempts == hop successes
  // (+ nothing), and attempts == delivered packets' total hop count.
  runner::Trial trial({.stations = 25,
                       .region_m = 800.0,
                       .rate_pps = 100.0,
                       .duration_s = 2.0,
                       .audit = true},
                      21);
  expect_clean_audit(trial, trial.run());
  const auto& m = trial.simulator().metrics();
  EXPECT_EQ(m.hop_attempts(), m.hop_successes());
  const double total_hops = m.hops().sum();
  EXPECT_DOUBLE_EQ(static_cast<double>(m.hop_attempts()), total_hops);
}

}  // namespace
}  // namespace drn::testing
