// Section 7.2 — performance of the scheduling scheme. Reproduces every
// number in that subsection and validates each against simulation:
//   * access probability p(1-p), 21% at p = 0.3;
//   * expected wait 1/(p(1-p)) = 4.76 slots at p = 0.3 (geometric model);
//   * quarter-slot packets -> 75% packing -> ~15% of all time per neighbour;
//   * receive-duty sweep showing ~0.3 is near-optimal for system throughput;
//   * transmit duty cycle approaching 50% with no head-of-line blocking.
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/delay_model.hpp"
#include "analysis/schedule_math.hpp"
#include "analysis/table.hpp"
#include "core/access.hpp"
#include "runner/scenario.hpp"

namespace {

using drn::StationId;
using drn::analysis::Table;
namespace core = drn::core;
namespace sim = drn::sim;

void analytic_table() {
  std::cout << "Analytic scheduling figures (Section 7.2):\n\n";
  Table t({"p", "q=p(1-p)", "wait slots 1/q", "packing eff (f=1/4)",
           "usable time/neighbour"});
  for (double p : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    t.add_row({Table::num(p, 2),
               Table::num(drn::analysis::access_probability(p), 3),
               Table::num(drn::analysis::expected_wait(p).value(), 2),
               Table::num(drn::analysis::packing_efficiency(0.25), 3),
               Table::num(drn::analysis::usable_time_fraction(p, 0.25), 4)});
  }
  t.print(std::cout);
  std::cout << "\nPaper anchors at p = 0.3: q = 0.21, wait = 4.76 slots, "
               "packing 75%, ~15% usable time per neighbour.\n\n";
}

void measured_wait_distribution() {
  std::cout << "Measured access wait vs the Bernoulli/geometric model "
               "(random clock phases, window search of core/access):\n\n";
  const double slot = 1.0;
  Table t({"p", "measured mean wait (slots)", "model 1/(p(1-p))"});
  for (double p : {0.2, 0.3, 0.4, 0.5}) {
    const core::Schedule s(91, slot, p);
    drn::Rng rng(17);
    double wait = 0.0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
      const core::ClockModel other(rng.uniform(1.0, 1.0e4), 1.0);
      std::vector<core::WindowConstraint> cs = {
          {&s, core::ClockModel(), false, drn::units::Seconds{0.0}},
          {&s, other, true, drn::units::Seconds{0.0}},
      };
      core::AccessRequest req;
      req.earliest_local = drn::units::Seconds{rng.uniform(0.0, 1.0e4)};
      req.duration = drn::units::Seconds{0.25};
      req.horizon = drn::units::Seconds{50000.0};
      wait += (*find_transmission_start(req, cs) - req.earliest_local).value();
    }
    t.add_row({Table::num(p, 2), Table::num(wait / trials, 2),
               Table::num(drn::analysis::expected_wait(p).value(), 2)});
  }
  t.print(std::cout);
  std::cout << "\n";
}

void wait_distribution() {
  std::cout << "Wait DISTRIBUTION vs the Bernoulli/geometric model at p = "
               "0.3 (Section 7.2: 'fairly well modeled by a Bernoulli "
               "process'):\n\n";
  const double p = 0.3;
  const core::Schedule s(92, 1.0, p);
  drn::Rng rng(18);
  std::vector<double> waits;
  for (int i = 0; i < 4000; ++i) {
    const core::ClockModel other(rng.uniform(1.0, 1.0e4), 1.0);
    std::vector<core::WindowConstraint> cs = {
        {&s, core::ClockModel(), false, drn::units::Seconds{0.0}},
        {&s, other, true, drn::units::Seconds{0.0}},
    };
    core::AccessRequest req;
    req.earliest_local = drn::units::Seconds{rng.uniform(0.0, 1.0e4)};
    req.duration = drn::units::Seconds{0.25};
    req.horizon = drn::units::Seconds{50000.0};
    waits.push_back(
        (*find_transmission_start(req, cs) - req.earliest_local).value());
  }
  const std::size_t bins = 12;
  const auto measured = drn::analysis::binned_wait_fractions(waits, bins);
  const auto model = drn::analysis::geometric_wait_pmf(p, bins);
  Table t({"wait (slots)", "measured fraction", "geometric model"});
  for (std::size_t k = 0; k < bins; ++k) {
    t.add_row({(k + 1 == bins ? ">= " : "") + std::to_string(k),
               Table::num(measured[k], 4), Table::num(model[k], 4)});
  }
  t.print(std::cout);
  std::cout << "\nTotal-variation distance = "
            << Table::num(
                   drn::analysis::total_variation(measured, model), 3)
            << " (0 = identical). The measured distribution is geometric-"
               "shaped with a heavier zero bin: a window may already be "
               "OPEN when the packet arrives, which the whole-slot Bernoulli "
               "model cannot express.\n\n";
}

void duty_cycle_sweep() {
  std::cout << "Receive-duty-cycle sweep on a 30-station network (delivered "
               "throughput and delay; the thesis finds ~30% near-optimal):\n\n";
  Table t({"p", "delivered", "mean delay (slots)", "mean tx duty",
           "collision losses"});
  for (double p : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6}) {
    auto cfg = drn::runner::multihop_config();
    cfg.receive_fraction = p;
    const double duration = 3.0;
    drn::runner::Trial trial({.stations = 30,
                              .region_m = 900.0,
                              .rate_pps = 700.0,
                              .duration_s = duration,
                              .drain_s = 120.0,
                              .net = cfg},
                             99);
    trial.run();
    const auto& m = trial.simulator().metrics();
    t.add_row({Table::num(p, 2), Table::num(m.delivered()),
               Table::num(m.delay().mean() / cfg.slot_s, 1),
               Table::num(m.mean_duty_cycle(duration), 3),
               Table::num(m.total_hop_losses())});
  }
  t.print(std::cout);
  std::cout << "\nLow p starves receivers (senders rarely find windows); high "
               "p starves transmitters. Delay is minimised in the 0.3-0.5 "
               "band, matching the thesis's ~30% choice once sender-side "
               "contention across several neighbours is in play.\n\n";
}

void saturation_duty_cycle() {
  std::cout << "Transmit duty under saturation (one busy pair, no "
               "head-of-line blocking; Section 7.2 says duty can approach "
               "(1-p) toward ~50-70%, bounded by window overlap):\n\n";
  // Station 0 saturated toward six neighbours with independent phases: the
  // usable share of its transmit windows is the union over neighbours,
  // (1-p)(1 - (1-p)^k) -> ~0.62 of all time at k = 6, ~0.46 after quarter-
  // slot packing — the paper's "approaching 50%".
  constexpr StationId kStations = 7;
  drn::radio::PropagationMatrix gains(kStations);
  for (StationId a = 0; a < kStations; ++a)
    for (StationId b = static_cast<StationId>(a + 1); b < kStations; ++b)
      gains.set_gain(a, b, drn::radio::LinearGain{1.0e-4});
  auto cfg = drn::runner::multihop_config();
  cfg.max_power_w = 1.0;
  cfg.exact_clock_models = true;
  cfg.respect_third_party_windows = false;
  drn::Rng rng(5);
  auto net = drn::core::build_scheduled_network(
      gains, drn::runner::scheme_criterion(), cfg, rng);
  sim::SimulatorConfig sc{drn::runner::scheme_criterion()};
  sim::Simulator simulator(gains, sc);
  for (StationId s = 0; s < kStations; ++s)
    simulator.set_mac(s, std::move(net.macs[s]));
  // Saturate 0 -> every neighbour, round-robin.
  const double duration = 20.0;
  for (int i = 0; i < 8000; ++i) {
    sim::Packet p;
    p.source = 0;
    p.destination = static_cast<StationId>(1 + i % (kStations - 1));
    p.size_bits = net.packet_bits;
    simulator.inject(0.0, p);
  }
  simulator.run_until(duration);
  Table t({"station", "tx duty cycle", "(1-p) bound", "union model x packing"});
  const double p = cfg.receive_fraction;
  const double model =
      (1.0 - p) * (1.0 - std::pow(1.0 - p, double(kStations - 1))) * 0.75;
  t.add_row({"0 (saturated, 6 neighbours)",
             Table::num(simulator.metrics().duty_cycle(0, duration), 3),
             Table::num(1.0 - p, 2), Table::num(model, 3)});
  t.print(std::cout);
  std::cout << "\nWith several independently-phased neighbours and no "
               "head-of-line blocking the transmitter approaches a ~50% duty "
               "cycle, as Section 7.2 claims.\n";
}

}  // namespace

int main() {
  std::cout << "Section 7.2 — performance of the scheduling scheme\n\n";
  analytic_table();
  measured_wait_distribution();
  wait_distribution();
  duty_cycle_sweep();
  saturation_duty_cycle();
  return 0;
}
