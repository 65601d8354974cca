// Sections 1 & 8: "Simulations of small networks (consisting of only 100 or
// 1000 stations) were used to demonstrate the effectiveness of the channel
// access scheme" — the end-to-end run. 100- and 1000-station random
// placements, noisy fitted clock models, minimum-energy multihop routing,
// Poisson traffic; versus ALOHA and CSMA baselines under the identical
// physical model (with genie acks, a bias in their favour).
//
// Runs through the runner subsystem: the four MACs form one sweep whose
// trials execute in parallel across hardware threads — results are
// bit-identical to a serial run (see DESIGN.md, runner determinism).
#include <iostream>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "common/parallel.hpp"
#include "runner/sweep.hpp"

namespace {

using drn::analysis::Table;
namespace runner = drn::runner;

std::string mac_label(runner::MacKind mac) {
  switch (mac) {
    case runner::MacKind::kScheme: return "scheduled scheme";
    case runner::MacKind::kAloha: return "pure ALOHA (genie ack)";
    case runner::MacKind::kCsma: return "CSMA (genie ack)";
    case runner::MacKind::kMaca: return "MACA (RTS/CTS, no genie)";
    default: return std::string(runner::mac_name(mac));
  }
}

void network_run(std::size_t stations, double region, double rate,
                 double duration, std::uint64_t seed) {
  std::cout << stations << "-station network (" << region
            << " m radius, Poisson " << rate << " pkt/s aggregate, "
            << duration << " s):\n\n";

  runner::SweepSpec spec;
  spec.stations = {stations};
  spec.region_m = {region};
  spec.macs = {runner::MacKind::kScheme, runner::MacKind::kAloha,
               runner::MacKind::kCsma, runner::MacKind::kMaca};
  spec.rates_pps = {rate};
  spec.seeds = 1;
  spec.master_seed = seed;
  spec.paired_seeds = true;  // all four MACs on the identical placement
  spec.base.duration_s = duration;
  spec.base.drain_s = 120.0;

  const auto result =
      runner::run_sweep(spec, drn::hardware_jobs());

  Table t({"MAC", "offered", "delivery", "T1", "T2", "T3", "tx/hop",
           "mean delay ms", "mean hops"});
  for (std::size_t i = 0; i < result.trials.size(); ++i) {
    const auto& r = result.results[i];
    t.add_row({mac_label(result.trials[i].point.mac), Table::num(r.offered),
               Table::num(r.delivery_ratio, 4), Table::num(r.type1_losses),
               Table::num(r.type2_losses), Table::num(r.type3_losses),
               Table::num(r.tx_per_hop, 3),
               Table::num(r.mean_delay_s * 1000.0, 1),
               Table::num(r.mean_hops, 2)});
  }
  t.print(std::cout);
  std::cout << "\n(" << result.trials.size() << " trials, " << result.jobs
            << " worker threads)\n\n";
}

}  // namespace

int main() {
  std::cout << "Section 8 — network simulations (scheme vs prior-work MACs, "
               "identical SINR physics)\n\n";
  network_run(100, 1600.0, 400.0, 2.0, 606);
  network_run(1000, 5000.0, 1000.0, 1.0, 707);
  std::cout << "Expected shape (paper): the scheme shows ZERO collision "
               "losses (T1=T2=T3=0) and delivers everything routable; the "
               "random-access baselines lose packets to all three collision "
               "types as load concentrates. tx/hop = 1.000 is the paper's "
               "'single transmission per hop' claim; the baselines only "
               "reach full delivery by burning genie-acknowledged retries "
               "(tx/hop > 1). MACA runs withOUT any genie — its RTS/CTS "
               "handshake is real airtime under the same physics — and "
               "without link-layer ACKs (original MACA) it simply loses "
               "data frames that die mid-air, which is why MACAW later "
               "added them.\n";
  return 0;
}
