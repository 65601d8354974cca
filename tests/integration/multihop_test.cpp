// Cooperative forwarding over minimum-energy routes (Section 6): packets
// cross the network hop by hop, route lengths match the Dijkstra oracle, and
// the whole stack (routing + scheduling + physics) composes.
#include <gtest/gtest.h>

#include <memory>

#include "core/network_builder.hpp"
#include "geo/placement.hpp"
#include "helpers/scenario.hpp"
#include "radio/propagation.hpp"
#include "routing/bellman_ford.hpp"
#include "routing/dijkstra.hpp"
#include "routing/graph.hpp"
#include "routing/min_energy.hpp"
#include "runner/scenario.hpp"
#include "sim/traffic.hpp"

namespace drn::testing {
namespace {

TEST(Multihop, ChainDeliversEndToEndWithExpectedHops) {
  // Six stations in a line, 100 m apart; power budget reaches only 150 m,
  // so 0 -> 5 must take exactly 5 hops.
  const auto placement = geo::line(6, {0.0, 0.0}, 100.0);
  const radio::FreeSpacePropagation model;
  auto gains = radio::PropagationMatrix::from_placement(placement, model);

  core::ScheduledNetworkConfig cfg;
  cfg.target_received_w = 1.0e-9;
  cfg.max_power_w = 1.0e-9 * 150.0 * 150.0;  // reach 150 m
  cfg.exact_clock_models = true;
  Rng build_rng(3);
  auto net = core::build_scheduled_network(
      gains, runner::scheme_criterion(), cfg, build_rng);

  const auto graph =
      routing::Graph::min_energy(gains, cfg.target_received_w / cfg.max_power_w);
  ASSERT_TRUE(graph.connected());
  const auto tables = routing::RoutingTables::build(graph);

  sim::SimulatorConfig sc{runner::scheme_criterion()};
  sim::Simulator sim(gains, sc);
  ScopedAudit audited(sim);
  for (StationId s = 0; s < 6; ++s) sim.set_mac(s, std::move(net.macs[s]));
  sim.set_router(tables.router());

  sim::Packet p;
  p.source = 0;
  p.destination = 5;
  p.size_bits = net.packet_bits;
  sim.inject(0.0, p);
  sim.run_until(30.0);

  EXPECT_EQ(sim.metrics().delivered(), 1u);
  EXPECT_DOUBLE_EQ(sim.metrics().hops().mean(), 5.0);
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
}

TEST(Multihop, HopCountsMatchDijkstraOracle) {
  auto cfg = runner::multihop_config();
  cfg.exact_clock_models = true;
  auto scenario = runner::make_scenario(
      {.stations = 30, .region_m = 900.0, .net = cfg}, 17);

  // Pick a handful of connected pairs and check delivered hop counts equal
  // the shortest-path hop counts.
  const auto graph = routing::Graph::min_energy(
      scenario.gains, cfg.target_received_w / cfg.max_power_w);
  sim::SimulatorConfig sc{runner::scheme_criterion()};
  sim::Simulator sim(scenario.gains, sc);
  ScopedAudit audited(sim);
  for (StationId s = 0; s < scenario.gains.size(); ++s)
    sim.set_mac(s, std::move(scenario.net.macs[s]));
  sim.set_router(scenario.tables.router());

  const routing::PathTree tree = routing::shortest_paths(graph, 0);
  std::size_t injected = 0;
  double expected_hops = 0.0;
  for (StationId dst = 1; dst < scenario.gains.size() && injected < 5; ++dst) {
    const auto path = routing::extract_path(tree, dst);
    if (path.empty()) continue;
    sim::Packet p;
    p.source = 0;
    p.destination = dst;
    p.size_bits = scenario.net.packet_bits;
    sim.inject(static_cast<double>(injected) * 1.0, p);
    expected_hops += static_cast<double>(routing::hop_count(path));
    ++injected;
  }
  ASSERT_GT(injected, 0u);
  sim.run_until(120.0);
  EXPECT_EQ(sim.metrics().delivered(), injected);
  EXPECT_DOUBLE_EQ(sim.metrics().hops().sum(), expected_hops);
}

TEST(Multihop, MinEnergyPrefersRelaysOverDirectBlast) {
  // Triangle with a centred relay: the route through the middle must be
  // chosen (Section 6.2), so delivered packets show 2 hops even though the
  // direct hop is physically reachable.
  const geo::Placement placement = {{0.0, 0.0}, {100.0, 0.0}, {200.0, 0.0}};
  const radio::FreeSpacePropagation model;
  auto gains = radio::PropagationMatrix::from_placement(placement, model);

  core::ScheduledNetworkConfig cfg;
  cfg.target_received_w = 1.0e-9;
  cfg.max_power_w = 1.0;  // everything reachable
  cfg.exact_clock_models = true;
  Rng build_rng(5);
  auto net = core::build_scheduled_network(
      gains, runner::scheme_criterion(), cfg, build_rng);
  const auto tables = routing::RoutingTables::build(
      routing::Graph::min_energy(gains, 1.0e-9));

  sim::SimulatorConfig sc{runner::scheme_criterion()};
  sim::Simulator sim(gains, sc);
  ScopedAudit audited(sim);
  for (StationId s = 0; s < 3; ++s) sim.set_mac(s, std::move(net.macs[s]));
  sim.set_router(tables.router());

  sim::Packet p;
  p.source = 0;
  p.destination = 2;
  p.size_bits = net.packet_bits;
  sim.inject(0.0, p);
  sim.run_until(30.0);
  EXPECT_EQ(sim.metrics().delivered(), 1u);
  EXPECT_DOUBLE_EQ(sim.metrics().hops().mean(), 2.0);
}

TEST(Multihop, StationChurnRerouteViaBellmanFord) {
  // Failure injection: a relay station dies mid-operation. The distributed
  // Bellman-Ford re-converges on the surviving topology and traffic flows
  // around the hole (the paper's self-organisation premise: no element is
  // special).
  const auto placement = geo::line(5, {0.0, 0.0}, 100.0);
  const radio::FreeSpacePropagation model;
  auto gains = radio::PropagationMatrix::from_placement(placement, model);
  // Reach 250 m: chain neighbours are +-1 and +-2.
  const double min_gain = 1.0 / (250.0 * 250.0);

  // Full graph: shortest 0 -> 4 goes hop by hop through the 100 m links.
  const auto full = routing::Graph::min_energy(gains, min_gain);
  routing::DistributedBellmanFord bf_full(full);
  (void)bf_full.run_synchronous();
  EXPECT_EQ(bf_full.next_hop(0, 4), 1u);

  // Station 2 dies: rebuild the graph without its edges and re-converge.
  routing::Graph survivors(gains.size());
  for (StationId a = 0; a < gains.size(); ++a) {
    for (StationId b = static_cast<StationId>(a + 1); b < gains.size(); ++b) {
      if (a == 2 || b == 2) continue;
      const double g = gains.gain(a, b);
      if (g >= min_gain) survivors.add_edge(a, b, 1.0 / g, g);
    }
  }
  routing::DistributedBellmanFord bf(survivors);
  Rng order(5);
  (void)bf.run_asynchronous(order);
  // The route now leaps over the dead station with the 200 m links 1->3.
  StationId at = 0;
  std::vector<StationId> path{at};
  while (at != 4) {
    at = bf.next_hop(at, 4);
    ASSERT_NE(at, kNoStation);
    ASSERT_NE(at, 2u) << "routed through the dead station";
    path.push_back(at);
    ASSERT_LT(path.size(), 10u);
  }
  EXPECT_EQ(path.size(), 4u);  // 0-1-3-4

  // And the scheme still carries traffic over the degraded routes.
  core::ScheduledNetworkConfig cfg;
  cfg.target_received_w = 1.0e-9;
  cfg.max_power_w = 1.0e-9 / min_gain;
  cfg.exact_clock_models = true;
  Rng build_rng(6);
  auto net = core::build_scheduled_network(
      gains, runner::scheme_criterion(), cfg, build_rng);
  sim::SimulatorConfig sc{runner::scheme_criterion()};
  sim::Simulator sim(gains, sc);
  ScopedAudit audited(sim);
  for (StationId s = 0; s < gains.size(); ++s)
    sim.set_mac(s, std::move(net.macs[s]));
  sim.set_router([&bf](StationId a, StationId d) { return bf.next_hop(a, d); });
  sim::Packet p;
  p.source = 0;
  p.destination = 4;
  p.size_bits = net.packet_bits;
  sim.inject(0.0, p);
  sim.run_until(30.0);
  EXPECT_EQ(sim.metrics().delivered(), 1u);
  EXPECT_DOUBLE_EQ(sim.metrics().hops().mean(), 3.0);
}

TEST(Multihop, SchemeWorksUnderDualSlopePropagation) {
  // The whole stack under the obstructed (two-ray) propagation model: the
  // scheme is propagation-agnostic — gains come from H regardless of the
  // law that generated them — so collision-freedom must be preserved.
  runner::ScenarioSpec spec;
  spec.stations = 25;
  spec.region_m = 800.0;
  spec.dual_slope_breakpoint_m = 100.0;  // 1/r^4 beyond 100 m
  // Reach ~250 m under dual-slope: gain(250) = 1e-4 * (100/250)^4 = 2.6e-7.
  spec.net.max_power_w = 1.0e-9 / 2.6e-7;
  spec.net.exact_clock_models = true;
  spec.rate_pps = 100.0;
  spec.duration_s = 1.0;
  spec.drain_s = 59.0;
  spec.audit = true;
  const runner::TrialResult r = runner::run_trial(spec, 29);
  EXPECT_GT(r.audit_checks, 0u);
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_EQ(r.type2_losses, 0u);
  EXPECT_EQ(r.type3_losses, 0u);
  EXPECT_EQ(r.delivered + r.mac_drops, r.offered);
}

TEST(Multihop, DistributedBellmanFordRoutesWorkInTheSimulator) {
  // Swap Dijkstra tables for the distributed asynchronous computation the
  // paper proposes; behaviour must be identical in cost structure.
  auto cfg = runner::multihop_config();
  cfg.exact_clock_models = true;
  auto scenario = runner::make_scenario(
      {.stations = 25, .region_m = 800.0, .net = cfg}, 19);
  const auto graph = routing::Graph::min_energy(
      scenario.gains, cfg.target_received_w / cfg.max_power_w);

  routing::DistributedBellmanFord bf(graph);
  Rng order_rng(19);
  (void)bf.run_asynchronous(order_rng);

  sim::SimulatorConfig sc{runner::scheme_criterion()};
  sim::Simulator sim(scenario.gains, sc);
  ScopedAudit audited(sim);
  for (StationId s = 0; s < scenario.gains.size(); ++s)
    sim.set_mac(s, std::move(scenario.net.macs[s]));
  sim.set_router(
      [&bf](StationId at, StationId dst) { return bf.next_hop(at, dst); });

  Rng rng(23);
  const auto traffic = sim::poisson_traffic(
      60.0, 1.0, scenario.net.packet_bits,
      sim::uniform_pairs(scenario.gains.size()), rng);
  for (const auto& inj : traffic) sim.inject(inj.time_s, inj.packet);
  sim.run_until(60.0);
  EXPECT_EQ(sim.metrics().losses(sim::LossType::kType2), 0u);
  EXPECT_EQ(sim.metrics().losses(sim::LossType::kType3), 0u);
  // Undelivered packets are exactly the unroutable draws (fringe stations
  // disconnected at this reach); nothing is lost on air.
  EXPECT_EQ(sim.metrics().delivered() + sim.metrics().mac_drops(),
            sim.metrics().offered());
  EXPECT_GT(sim.metrics().delivery_ratio(), 0.75);
}

}  // namespace
}  // namespace drn::testing
