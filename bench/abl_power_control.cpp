// Ablation A2 — power control (Section 6.1). Constant-delivered-power
// control vs fixed transmit power on the same random network: received-SNR
// variance collapses, distant-station interference drops, and the Section 4
// analysis (constant power density) stays valid under density variation.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "analysis/table.hpp"
#include "radio/units.hpp"
#include "runner/scenario.hpp"
#include "sim/traffic.hpp"

namespace {

using drn::StationId;
using drn::analysis::Table;
namespace sim = drn::sim;

struct Outcome {
  double margin_mean_db = 0.0;
  double margin_stddev_db = 0.0;
  double delivery = 0.0;
  std::uint64_t losses = 0;
};

Outcome run(bool controlled, std::uint64_t seed) {
  auto cfg = drn::runner::multihop_config();
  cfg.exact_clock_models = true;
  auto scenario = drn::runner::make_scenario(
      {.stations = 40, .region_m = 1000.0, .net = cfg}, seed);

  if (!controlled) {
    // Rebuild the MACs with fixed-power policy: every station blasts at the
    // power needed for its weakest neighbour (what it would need anyway).
    for (StationId s = 0; s < scenario.gains.size(); ++s) {
      const auto& old = *scenario.net.macs[s];
      drn::core::ScheduledStationConfig sc = old.config();
      double worst = 0.0;
      for (const auto& n : old.neighbors().all())
        worst = std::max(worst, cfg.target_received_w / n.gain);
      if (worst <= 0.0) worst = cfg.max_power_w;
      sc.power = drn::core::PowerControl::fixed(
          std::min(worst, cfg.max_power_w));
      drn::core::NeighborTable table;
      for (const auto& n : old.neighbors().all()) table.add(n);
      scenario.net.macs[s] = std::make_unique<drn::core::ScheduledStation>(
          sc, std::move(table));
    }
  }

  // runner::Trial would install the builder's MACs, so the rig is wired by
  // hand: MACs, min-energy router, Poisson uniform-pair traffic.
  sim::SimulatorConfig sc{drn::runner::scheme_criterion()};
  sim::Simulator simulator(scenario.gains, sc);
  for (StationId s = 0; s < scenario.gains.size(); ++s)
    simulator.set_mac(s, std::move(scenario.net.macs[s]));
  simulator.set_router(scenario.tables.router());
  drn::Rng rng(seed);
  for (const auto& inj : sim::poisson_traffic(
           300.0, 2.0, scenario.net.packet_bits,
           sim::uniform_pairs(scenario.gains.size()), rng))
    simulator.inject(inj.time_s, inj.packet);
  simulator.run_until(2.0 + 120.0);
  const auto& m = simulator.metrics();
  Outcome o;
  o.margin_mean_db = m.sinr_margin_db().mean();
  o.margin_stddev_db =
      m.sinr_margin_db().count() > 1 ? m.sinr_margin_db().stddev() : 0.0;
  o.delivery = m.delivery_ratio();
  o.losses = m.total_hop_losses();
  return o;
}

}  // namespace

int main() {
  std::cout << "Ablation A2 — power control (Section 6.1)\n"
               "Same 40-station network and traffic; 'controlled' delivers a "
               "constant 1 nW to every addressee, 'fixed' transmits at each "
               "station's max-needed power regardless of the hop.\n\n";
  Table t({"policy", "SINR margin mean dB", "margin stddev dB", "delivery",
           "collision losses"});
  for (const std::uint64_t seed : {501u, 502u}) {
    const auto on = run(true, seed);
    const auto off = run(false, seed);
    t.add_row({"controlled (seed " + std::to_string(seed) + ")",
               Table::num(on.margin_mean_db, 2),
               Table::num(on.margin_stddev_db, 2), Table::num(on.delivery, 4),
               Table::num(on.losses)});
    t.add_row({"fixed power (seed " + std::to_string(seed) + ")",
               Table::num(off.margin_mean_db, 2),
               Table::num(off.margin_stddev_db, 2),
               Table::num(off.delivery, 4), Table::num(off.losses)});
  }
  t.print(std::cout);
  std::cout
      << "\nPaper check: 'By fixing the received power level, the variance "
         "in signal-to-noise ratio can be reduced.' Controlled power shows a "
         "tighter margin spread; fixed power wastes headroom on short "
         "hops (huge margins) while raising everyone's noise floor.\n";
  return 0;
}
