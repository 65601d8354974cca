// Ablation A4 — receiver/packet design knobs:
//   (a) despreading-channel count vs Type-2 loss (Section 5: "it should not
//       be larger than the number of neighbors"), and
//   (b) packet-size fraction vs packing efficiency and delay (Section 7.2's
//       quarter-slot choice).
#include <iostream>
#include <memory>
#include <string>

#include "analysis/schedule_math.hpp"
#include "analysis/table.hpp"
#include "runner/scenario.hpp"

namespace {

using drn::StationId;
using drn::analysis::Table;
namespace sim = drn::sim;

void despreading_channels() {
  std::cout << "(a) Despreading channels vs Type-2 overload\n"
               "Star topology: 6 leaves all saturating the hub.\n\n";
  Table t({"channels", "delivered", "T2 losses"});
  for (int channels : {1, 2, 4, 8}) {
    drn::radio::PropagationMatrix gains(7);
    for (StationId leaf = 1; leaf < 7; ++leaf) {
      gains.set_gain(0, leaf, drn::radio::LinearGain{1.0e-4});
      for (StationId other = static_cast<StationId>(leaf + 1); other < 7;
           ++other)
        gains.set_gain(leaf, other, drn::radio::LinearGain{2.5e-5});
    }
    auto cfg = drn::runner::multihop_config();
    cfg.max_power_w = 1.0;
    cfg.exact_clock_models = true;
    cfg.respect_third_party_windows = false;  // isolate the channel effect
    drn::Rng rng(4);
    auto net = drn::core::build_scheduled_network(
        gains, drn::runner::scheme_criterion(), cfg, rng);
    sim::SimulatorConfig sc{drn::runner::scheme_criterion()};
    sc.despreading_channels = channels;
    sim::Simulator simulator(gains, sc);
    for (StationId s = 0; s < 7; ++s)
      simulator.set_mac(s, std::move(net.macs[s]));
    // Each leaf fires a steady stream at the hub.
    for (int i = 0; i < 200; ++i) {
      for (StationId leaf = 1; leaf < 7; ++leaf) {
        sim::Packet p;
        p.source = leaf;
        p.destination = 0;
        p.size_bits = net.packet_bits;
        simulator.inject(0.001 * i, p);
      }
    }
    simulator.run_until(120.0);
    t.add_row({Table::num(std::uint64_t(channels)),
               Table::num(simulator.metrics().delivered()),
               Table::num(simulator.metrics().losses(sim::LossType::kType2))});
  }
  t.print(std::cout);
  std::cout << "\nWith channels >= the number of simultaneously-sending "
               "neighbours, Type-2 loss vanishes — the paper's argument for "
               "a handful of despreading channels (GPS-class hardware).\n\n";
}

void packet_fraction() {
  std::cout << "(b) Packet-size fraction of a slot (Section 7.2 chooses "
               "1/4)\n\n";
  Table t({"fraction", "analytic packing eff", "delivered", "mean delay (slots)"});
  for (double f : {0.125, 0.25, 0.5, 0.75}) {
    auto cfg = drn::runner::multihop_config();
    cfg.packet_fraction = f;
    cfg.exact_clock_models = true;
    drn::runner::Trial trial({.stations = 25,
                              .region_m = 800.0,
                              .rate_pps = 200.0,
                              .duration_s = 2.0,
                              .drain_s = 120.0,
                              .net = cfg},
                             909);
    trial.run();
    const auto& m = trial.simulator().metrics();
    t.add_row({Table::num(f, 3),
               Table::num(drn::analysis::packing_efficiency(f), 3),
               Table::num(m.delivered()),
               Table::num(m.delay().mean() / cfg.slot_s, 1)});
  }
  t.print(std::cout);
  std::cout
      << "\nSmall packets fit windows easily (but cost header overhead the "
         "model omits); large fractions struggle to fit inside guard-shrunk "
         "overlaps, inflating delay. The quarter-slot choice balances the "
         "two, as Section 7.2 argues.\n";
}

}  // namespace

int main() {
  std::cout << "Ablation A4 — receiver & packet design\n\n";
  despreading_channels();
  packet_fraction();
  return 0;
}
