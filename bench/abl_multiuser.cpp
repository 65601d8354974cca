// Ablation A5 — multiuser detection (the paper's footnote 2: receivers that
// "model and subtract only a few of the strongest interfering signals" can
// beat the treat-everything-as-noise bound, but complexity is exponential in
// the number of cancelled signals, so k stays small). Sweep k on a dense hot
// spot running ALOHA (plenty of collisions to rescue) and on the scheduled
// scheme (already collision-free: nothing left for k to buy).
#include <iostream>
#include <memory>
#include <string>

#include "analysis/table.hpp"
#include "baselines/aloha.hpp"
#include "runner/scenario.hpp"
#include "sim/traffic.hpp"

namespace {

using drn::StationId;
using drn::analysis::Table;
namespace sim = drn::sim;

struct Outcome {
  double delivery = 0.0;
  std::uint64_t t1 = 0;
  std::uint64_t t2 = 0;
  std::uint64_t t3 = 0;
};

Outcome run_aloha(int k, std::uint64_t seed) {
  auto cfg = drn::runner::multihop_config();
  cfg.exact_clock_models = true;
  auto scenario = drn::runner::make_scenario(
      {.stations = 20, .region_m = 600.0, .net = cfg}, seed);
  // Narrowband receiver (0 dB threshold): ALOHA's collisions are SINR
  // failures a canceller can actually rescue. (Under the 23 dB spread
  // design, ALOHA's losses are almost purely Type 3 — the receiver's own
  // transmitter — which no cancellation fixes.)
  sim::SimulatorConfig sc{drn::radio::ReceptionCriterion(drn::radio::Hertz{1.0e6}, drn::radio::BitsPerSecond{1.0e6}, drn::radio::Decibels{0.0})};
  sc.multiuser_subtract_k = k;
  sim::Simulator sim(scenario.gains, sc);
  drn::baselines::ContentionConfig cc;
  cc.power_w = 1.0e-4;
  cc.max_retries = 2;
  cc.backoff_mean_s = 0.005;
  for (StationId s = 0; s < scenario.gains.size(); ++s)
    sim.set_mac(s, std::make_unique<drn::baselines::PureAloha>(cc));
  sim.set_router(scenario.tables.router());
  drn::Rng rng(seed);
  for (const auto& inj : sim::poisson_traffic(
           800.0, 2.0, scenario.net.packet_bits,
           sim::uniform_pairs(scenario.gains.size()), rng))
    sim.inject(inj.time_s, inj.packet);
  sim.run_until(40.0);
  return {sim.metrics().delivery_ratio(),
          sim.metrics().losses(sim::LossType::kType1),
          sim.metrics().losses(sim::LossType::kType2),
          sim.metrics().losses(sim::LossType::kType3)};
}

Outcome run_scheme(int k, std::uint64_t seed) {
  auto cfg = drn::runner::multihop_config();
  cfg.exact_clock_models = true;
  auto scenario = drn::runner::make_scenario(
      {.stations = 20, .region_m = 600.0, .net = cfg}, seed);
  // runner::Trial would build its own simulator, without multiuser
  // detection, so the rig is wired by hand like run_aloha's.
  sim::SimulatorConfig sc{drn::runner::scheme_criterion()};
  sc.multiuser_subtract_k = k;
  sim::Simulator sim(scenario.gains, sc);
  for (StationId s = 0; s < scenario.gains.size(); ++s)
    sim.set_mac(s, std::move(scenario.net.macs[s]));
  sim.set_router(scenario.tables.router());
  drn::Rng rng(seed);
  for (const auto& inj : sim::poisson_traffic(
           800.0, 2.0, scenario.net.packet_bits,
           sim::uniform_pairs(scenario.gains.size()), rng))
    sim.inject(inj.time_s, inj.packet);
  sim.run_until(2.0 + 60.0);
  const auto& m = sim.metrics();
  return {m.delivery_ratio(), m.losses(sim::LossType::kType1),
          m.losses(sim::LossType::kType2), m.losses(sim::LossType::kType3)};
}

}  // namespace

int main() {
  std::cout << "Ablation A5 — multiuser detection (footnote 2): subtract the "
               "k strongest interferers before the SINR test\n\n";
  Table t({"k", "ALOHA(narrowband) delivery", "T1", "T2", "T3",
           "scheme delivery", "scheme losses"});
  for (int k : {0, 1, 2, 4}) {
    const auto aloha = run_aloha(k, 1234);
    const auto scheme = run_scheme(k, 1234);
    t.add_row({Table::num(std::uint64_t(k)), Table::num(aloha.delivery, 4),
               Table::num(aloha.t1), Table::num(aloha.t2),
               Table::num(aloha.t3), Table::num(scheme.delivery, 4),
               Table::num(scheme.t1 + scheme.t2 + scheme.t3)});
  }
  t.print(std::cout);
  std::cout
      << "\nCancelling a few strong interferers rescues many of the "
         "random-access collisions (mostly Type 1/2; Type 3 persists — the "
         "receiver's own transmitter saturates any canceller). The scheduled "
         "scheme gains nothing because it never collided in the first place "
         "— scheduling substitutes for per-packet signal processing, which "
         "is the paper's core trade.\n";
  return 0;
}
