// Quickstart: build a 20-station packet radio network with the paper's
// collision-free scheduled channel access, route with minimum energy, push
// some traffic through it, and print what happened.
//
//   $ ./quickstart
#include <iostream>

#include "core/network_builder.hpp"
#include "geo/placement.hpp"
#include "radio/propagation.hpp"
#include "routing/dijkstra.hpp"
#include "routing/graph.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

int main() {
  using namespace drn;

  // 1. Scatter 20 stations over a 600 m disc (positions in metres).
  Rng rng(2024);
  const geo::Placement placement = geo::uniform_disc(20, 600.0, rng);

  // 2. Physics: free-space 1/r^2 propagation -> the gain matrix H.
  const radio::FreeSpacePropagation propagation;
  const auto gains =
      radio::PropagationMatrix::from_placement(placement, propagation);

  // 3. The radio design point: 1 Mb/s over 200 MHz of spread bandwidth
  //    (23 dB processing gain) with a 5 dB margin over the Shannon bound.
  const radio::ReceptionCriterion criterion(radio::Hertz{200.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{5.0});

  // 4. Build the self-organising network: random clocks, rendezvous-fitted
  //    clock models, pseudo-random schedules (p = 0.3), power control
  //    delivering 1 nW to every addressee.
  core::ScheduledNetworkConfig net_cfg;
  net_cfg.target_received_w = 1.0e-9;
  net_cfg.max_power_w = 1.0e-3;  // limits direct reach to ~1 km
  Rng build_rng(7);
  auto net = core::build_scheduled_network(gains, criterion, net_cfg, build_rng);

  // 5. Minimum-energy routes over the same neighbours, at cost 1/gain
  //    straight from the propagation matrix.
  const auto graph = routing::Graph::min_energy(net.neighbors, gains);
  const auto tables = routing::RoutingTables::build(graph);

  // 6. Wire it into the event simulator and offer Poisson traffic.
  sim::SimulatorConfig sim_cfg{criterion};
  sim::Simulator sim(gains, sim_cfg);
  for (StationId s = 0; s < gains.size(); ++s)
    sim.set_mac(s, std::move(net.macs[s]));
  sim.set_router(tables.router());

  Rng traffic_rng(99);
  for (const auto& inj :
       sim::poisson_traffic(/*packets_per_second=*/100.0, /*duration_s=*/2.0,
                            net.packet_bits, sim::uniform_pairs(gains.size()),
                            traffic_rng))
    sim.inject(inj.time_s, inj.packet);

  sim.run_until(30.0);

  // 7. Results.
  const auto& m = sim.metrics();
  std::cout << "offered packets:        " << m.offered() << '\n'
            << "delivered end-to-end:   " << m.delivered() << " ("
            << 100.0 * m.delivery_ratio() << "%)\n"
            << "mean hops per packet:   " << m.hops().mean() << '\n'
            << "mean delay:             " << m.delay().mean() * 1000.0
            << " ms\n"
            << "collision losses:       type1=" << m.losses(sim::LossType::kType1)
            << " type2=" << m.losses(sim::LossType::kType2)
            << " type3=" << m.losses(sim::LossType::kType3) << '\n';
  std::cout << "\nThe scheme is collision-free: every loss row above should "
               "read zero.\n";
  return 0;
}
