// Ablation A6 — per-link rate selection (footnote 9: "stations might vary
// the rate at which they communicate depending on the observed
// interference"). Ten isolated point-to-point links at distances 50..500 m,
// all transmitting at the SAME fixed power (no power control): the base
// design runs every link at the rate sized for the worst link; the adaptive
// design picks each link's highest feasible rung of a x2 ladder. Goodput is
// measured by actually running the scheduled MAC with per-link rates through
// the simulator (variable airtimes, rate-dependent SINR thresholds).
//
// Note the interplay with Section 6.1: WITH the paper's power control every
// link is delivered the same SNR on purpose, and adaptation has nothing to
// harvest — rate adaptation is the alternative to power control for
// exploiting link diversity, not an addition to it.
#include <cmath>
#include <iostream>
#include <memory>
#include <string>

#include "analysis/table.hpp"
#include "core/rate_selection.hpp"
#include "radio/propagation.hpp"
#include "runner/scenario.hpp"

namespace {

using drn::StationId;
using drn::analysis::Table;
namespace core = drn::core;
namespace sim = drn::sim;

constexpr double kPowerW = 1.0e-4;
constexpr double kThermalW = 1.8e-8;  // sets the worst link near design SNR
constexpr double kSlot = 0.01;
constexpr double kAirtime = kSlot / 4.0;
constexpr int kLinks = 10;

/// Pairs 5 km apart so links barely interact; link i spans 50*(i+1) metres.
drn::radio::PropagationMatrix make_gains() {
  drn::geo::Placement placement;
  for (int i = 0; i < kLinks; ++i) {
    const double base = 5000.0 * i;
    placement.push_back({base, 0.0});
    placement.push_back({base, 50.0 * (i + 1)});
  }
  const drn::radio::FreeSpacePropagation model;
  return drn::radio::PropagationMatrix::from_placement(placement, model);
}

double run(bool adaptive, const drn::radio::PropagationMatrix& gains,
           const core::RateLadder& ladder, Table* per_link) {
  const auto criterion = drn::runner::scheme_criterion();
  sim::SimulatorConfig sc{criterion};
  sc.thermal_noise_w = kThermalW;
  sim::Simulator sim(gains, sc);

  const core::Schedule schedule(0xAB1E, kSlot, 0.3);
  drn::Rng rng(99);
  std::vector<core::StationClock> clocks;
  for (int s = 0; s < 2 * kLinks; ++s)
    clocks.push_back(core::StationClock::random(rng, core::Seconds{1.0e5}, 10.0));

  std::vector<double> rates(static_cast<std::size_t>(kLinks));
  for (int i = 0; i < kLinks; ++i) {
    const auto tx = static_cast<StationId>(2 * i);
    const auto rx = static_cast<StationId>(2 * i + 1);
    const double snr = kPowerW * gains.gain(rx, tx) / kThermalW;
    rates[static_cast<std::size_t>(i)] =
        adaptive ? core::rate_for_link(kPowerW * gains.gain(rx, tx),
                                       kThermalW, criterion.bandwidth_hz(),
                                       criterion.margin_db(), ladder)
                 : criterion.data_rate_bps();
    if (per_link != nullptr) {
      per_link->add_row(
          {std::to_string(50 * (i + 1)) + " m",
           Table::num(drn::radio::to_db(snr), 1),
           Table::num(rates[static_cast<std::size_t>(i)] / 1.0e6, 2)});
    }

    core::ScheduledStationConfig cfg{
        .schedule = schedule,
        .clock = clocks[tx],
        .packet_airtime_s = kAirtime,
        .guard_s = 0.0002,
        .power = core::PowerControl::fixed(kPowerW),
        .max_queue = 8192,
        .data_rate_bps = criterion.data_rate_bps()};
    core::Neighbor n;
    n.id = rx;
    n.gain = gains.gain(rx, tx);
    n.clock = core::ClockModel::exact(clocks[tx], clocks[rx]);
    n.rate_bps = rates[static_cast<std::size_t>(i)];
    core::NeighborTable table;
    table.add(n);
    sim.set_mac(tx, std::make_unique<core::ScheduledStation>(cfg, table));

    // Receivers idle (a trivial MAC via ScheduledStation with no neighbours
    // would search nothing; give them an empty table).
    core::ScheduledStationConfig rx_cfg{schedule,
                                        clocks[rx],
                                        kAirtime,
                                        0.0002,
                                        core::PowerControl::fixed(kPowerW)};
    sim.set_mac(rx, std::make_unique<core::ScheduledStation>(
                        rx_cfg, core::NeighborTable()));
  }

  // Saturate every link: packets sized to one quarter slot at the LINK rate
  // (higher rate = more bits per transmission).
  const double duration = 10.0;
  for (int i = 0; i < kLinks; ++i) {
    const double bits = rates[static_cast<std::size_t>(i)] * kAirtime;
    for (int k = 0; k < 600; ++k) {
      sim::Packet p;
      p.source = static_cast<StationId>(2 * i);
      p.destination = static_cast<StationId>(2 * i + 1);
      p.size_bits = bits;
      sim.inject(0.0, p);
    }
  }
  sim.run_until(duration);

  // Goodput: delivered bits per second across all links.
  double bits = 0.0;
  // delivered() counts packets; recover bits from per-link delivery via
  // hop successes? Packets are uniform per link, so count via metrics is
  // not enough — use airtime accounting instead: every successful hop of
  // link i carried rates[i]*kAirtime bits. hop successes are not split per
  // link in Metrics, so approximate with delivered packets * link bits via
  // a per-link recount: all packets of link i have the same size; total
  // delivered bits = sum over links of delivered_i * bits_i. We lack
  // per-link delivered counts in Metrics, so derive from airtime: sender i
  // airtime * rate_i = bits radiated; with zero losses radiated ~ delivered.
  for (int i = 0; i < kLinks; ++i) {
    bits += sim.metrics().airtime_s(static_cast<StationId>(2 * i)) *
            rates[static_cast<std::size_t>(i)];
  }
  // Confirm the collision-free invariant held (losses would invalidate the
  // airtime-based goodput accounting).
  if (sim.metrics().total_hop_losses() != 0) return -1.0;
  return bits / duration;
}

}  // namespace

int main() {
  std::cout << "Ablation A6 — per-link rate selection vs the fixed design "
               "rate (fixed transmit power, no power control)\n\n";
  const auto gains = make_gains();
  const auto ladder = core::geometric_ladder(1.0e6, 2.0, 9);  // 1..256 Mb/s

  Table per_link({"link length", "SNR dB", "adaptive rate Mb/s"});
  const double adaptive = run(true, gains, ladder, &per_link);
  const double fixed = run(false, gains, ladder, nullptr);
  per_link.print(std::cout);

  std::cout << '\n';
  Table t({"design", "aggregate goodput Mb/s", "multiple"});
  t.add_row({"fixed design rate (1 Mb/s everywhere)",
             Table::num(fixed / 1.0e6, 2), "1.00"});
  t.add_row({"per-link ladder rate", Table::num(adaptive / 1.0e6, 2),
             Table::num(adaptive / fixed, 2)});
  t.print(std::cout);
  std::cout
      << "\nShort links run orders of magnitude faster than the worst-case "
         "design rate; the paper's fixed-rate choice trades this away for "
         "simplicity (and its power control deliberately equalises SNR, "
         "making the fixed rate efficient when power, not rate, adapts).\n";
  return 0;
}
