// Trial benchmark binary: runs whole drn trials from one thread, timing the
// boundary between setup and the event loop, and prints one JSON line that
// trialbench/run.py turns into the benchmark's result.
//
// A trial is assembled from the library's public functions in the order
// runner::run_trial uses them (placement, gains, scheduled network, graph,
// routing tables, simulator, MACs + router, traffic, loop), so its simulated
// outputs equal run_trial's; run.py checks that on every trial. A traced
// trial swaps in the probes of probes.hpp at the same seams.
//
//   trialbench --workload NAME [--seed N] [--inputs K] [--seconds S]
//              [--traced] [--smoke] [--reference]
//
// A run's inputs are K trial seeds, trial_seed(606, N*K + k) for k < K.
// Untraced (default): repeats a round of K trials, one per input, within S
// seconds. --traced: one traced trial of input 0 first (its memory figures
// are this process's alone), then untraced/traced pairs of it within S
// seconds. --reference adds runner::run_trial of each
// input to the output, untimed. --smoke runs the small version of the
// workload (counter pinning). Before the first round and after each, a host
// speed probe is timed (host_probe_s in the output).
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "probes.hpp"
#include "radio/units.hpp"
#include "runner/json.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "sim/traffic.hpp"

namespace {

using namespace drn;
using trialbench::Clock;
using trialbench::LayerCounters;
using trialbench::seconds_since;

/// Master seed of the trial seeds (tab_sec8's first table).
constexpr std::uint64_t kMasterSeed = 606;

// ---------------------------------------------------------------------------
// Workloads

/// tab_sec8's density (1000 stations in a 5 km disc) at `stations`.
runner::ScenarioSpec section8(std::size_t stations, runner::MacKind mac) {
  runner::ScenarioSpec spec;
  spec.stations = stations;
  spec.region_m = 5000.0 * std::sqrt(static_cast<double>(stations) / 1000.0);
  spec.mac = mac;
  spec.engine = radio::InterferenceEngineKind::kCompensated;
  return spec;
}

/// Mostly setup: M = 4096 routing tables dominate a collision-free loop.
runner::ScenarioSpec static_4096(bool smoke) {
  auto spec = section8(smoke ? 256 : 4096, runner::MacKind::kScheme);
  spec.rate_pps = 0.5 * static_cast<double>(spec.stations);
  spec.duration_s = 1.0;
  spec.drain_s = 20.0;
  return spec;
}

/// Mostly broadcast fan-out: maintenance beacons, beacon-peer state and the
/// timer cancellations churn triggers.
runner::ScenarioSpec beacon_churn_1024(bool smoke) {
  auto spec = section8(smoke ? 128 : 1024, runner::MacKind::kScheme);
  spec.rate_pps = 0.5 * static_cast<double>(spec.stations);
  spec.duration_s = smoke ? 1.0 : 0.2;
  spec.drain_s = 2.0;
  spec.net.beacon_interval_s = 1.0;
  spec.net.neighbor_timeout_s = 3.0;
  spec.net.readopt_neighbors = true;
  spec.dynamics.churn_rate_per_s = 8.0;
  spec.dynamics.mean_downtime_s = 1.0;
  return spec;
}

/// Overlapping unicasts: pure ALOHA at 4x tab_sec8's offered load.
runner::ScenarioSpec aloha_load_1000(bool smoke) {
  auto spec = section8(smoke ? 100 : 1000, runner::MacKind::kAloha);
  spec.rate_pps = 4.0 * static_cast<double>(spec.stations);
  spec.duration_s = smoke ? 0.5 : 2.0;
  spec.drain_s = 20.0;
  return spec;
}

std::optional<runner::ScenarioSpec> workload(std::string_view name,
                                             bool smoke) {
  if (name == "static-4096") return static_4096(smoke);
  if (name == "beacon-churn-1024") return beacon_churn_1024(smoke);
  if (name == "aloha-load-1000") return aloha_load_1000(smoke);
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// One trial

/// Peak resident set of this process (VmHWM) since the last
/// reset_peak_rss(), MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Lowers VmHWM to the current resident set, so that the host probe's
/// buffer, freed by then, is not counted in the workload's peak.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ---------------------------------------------------------------------------
// Host speed probe

/// Steps of one probe sample: ~40 ms on the baseline host.
constexpr std::size_t kProbeSteps = 250'000;
/// Probe samples taken before each round and after the last.
constexpr int kProbeSamples = 3;

/// Times a fixed dependent-load chase through a 32 MB buffer, which lives in
/// the shared last-level cache when the host is quiet and spills to memory
/// when other tenants crowd it. The trials slow down with the host as well
/// (by more than the probe), and run.py scales every time by this probe to
/// take out the part the two share (see README.md). The probe is the
/// benchmark's own code: no change to drn moves it. Its buffer is mapped
/// and unmapped here so that it never adds to a trial's memory.
void probe_host(std::vector<double>& samples) {
  constexpr std::size_t n = std::size_t{1} << 23;  // uint32 entries: 32 MB
  void* mem = mmap(nullptr, n * sizeof(std::uint32_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("host probe: mmap failed");
  auto* next = static_cast<std::uint32_t*>(mem);
  // A full-period LCG over [0, n): one cycle through every entry in an
  // order the hardware prefetchers cannot follow.
  for (std::size_t i = 0; i < n; ++i)
    next[i] = static_cast<std::uint32_t>(
        (i * 2862933555777941757ULL + 3037000493ULL) & (n - 1));
  std::uint32_t at = 0;
  for (int s = 0; s < kProbeSamples; ++s) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kProbeSteps; ++k) at = next[at];
    samples.push_back(seconds_since(t0));
  }
  munmap(mem, n * sizeof(std::uint32_t));
  // Uses the chase's result, so the compiler cannot drop the loads.
  if (at >= n) throw std::logic_error("host probe left its buffer");
}

struct TrialRecord {
  runner::TrialResult result;
  sim::Simulator::QueueStats queue;
  double placement_s = 0.0, gains_s = 0.0, network_s = 0.0, graph_s = 0.0,
         tables_s = 0.0, construct_s = 0.0, install_s = 0.0, inject_s = 0.0;
  double setup_s = 0.0, loop_s = 0.0, trial_s = 0.0;
  // Filled by traced trials only.
  std::uint64_t edges = 0;
  double peak_after_setup_mb = 0.0, peak_after_loop_mb = 0.0;
  bool engine_floor_matches = true;
};

/// Runs one trial of `spec` at `seed`; `probe` non-null traces it.
TrialRecord run_one(const runner::ScenarioSpec& spec, std::uint64_t seed,
                    LayerCounters* probe) {
  const dynamics::DynamicsConfig& dyn = spec.dynamics;
  if (spec.engine != radio::InterferenceEngineKind::kCompensated ||
      spec.audit || dyn.jammer.count > 0 || dyn.mobility_enabled() ||
      (dyn.churn_enabled() && spec.mac != runner::MacKind::kScheme))
    throw std::invalid_argument("workload uses a path the bench does not time");

  TrialRecord rec;
  const auto start = Clock::now();
  auto lap_start = start;
  const auto lap = [&lap_start] {
    const double s = seconds_since(lap_start);
    lap_start = Clock::now();
    return s;
  };

  // runner::make_scenario, phase by phase.
  Rng rng(seed);
  auto placement = geo::uniform_disc(spec.stations, spec.region_m, rng);
  rec.placement_s = lap();
  const radio::FreeSpacePropagation model;
  auto gains = radio::make_dense_gains(placement, model);
  rec.gains_s = lap();
  Rng build_rng = rng.split(1);
  auto net = core::build_scheduled_network(gains, runner::scheme_criterion(),
                                           spec.net, build_rng);
  rec.network_s = lap();
  std::optional<routing::RoutingTables> tables;
  {
    const auto graph = routing::Graph::min_energy(
        gains, spec.net.target_received_w / spec.net.max_power_w);
    rec.edges = graph.edge_count();
    rec.graph_s = lap();
    tables.emplace(routing::RoutingTables::build(graph));
  }
  runner::Scenario scenario{std::move(placement), std::move(gains),
                            std::move(net), std::move(*tables)};
  tables.reset();
  rec.tables_s = lap();

  // runner::run_trial from here on.
  const geo::Placement placement_copy = scenario.placement;
  sim::SimulatorConfig sim_cfg{spec.criterion()};
  sim_cfg.seed = seed;
  sim_cfg.engine = spec.engine;
  std::optional<trialbench::CountingObserver> observer;
  std::optional<sim::Simulator> sim_box;
  const trialbench::ProbeEngine* probe_engine = nullptr;
  if (probe != nullptr) {
    // The floor the simulator derives from its config (kTB over the band).
    const radio::Watts thermal =
        sim_cfg.thermal_noise_w >= 0.0
            ? radio::Watts{sim_cfg.thermal_noise_w}
            : radio::thermal_noise(sim_cfg.criterion.bandwidth());
    auto engine = std::make_unique<trialbench::ProbeEngine>(
        radio::make_compensated_engine(scenario.gains), thermal, *probe);
    probe_engine = engine.get();
    sim_box.emplace(std::move(engine), sim_cfg);
    observer.emplace(*probe);
    sim_box->add_observer(&*observer);
  } else {
    sim_box.emplace(scenario.gains, sim_cfg);
  }
  sim::Simulator& sim = *sim_box;
  rec.construct_s = lap();

  // Scheme churn rejoin factory from the pre-run snapshot, as run_trial
  // builds it.
  dynamics::MacFactory rejoin;
  if (dyn.churn_enabled()) {
    std::vector<core::ScheduledStationConfig> cfgs;
    std::vector<core::NeighborTable> neighbor_tables;
    cfgs.reserve(scenario.net.macs.size());
    neighbor_tables.reserve(scenario.net.macs.size());
    for (const auto& mac : scenario.net.macs) {
      cfgs.push_back(mac->config());
      neighbor_tables.push_back(mac->neighbors());
    }
    rejoin = [cfgs = std::move(cfgs),
              neighbor_tables = std::move(neighbor_tables)](StationId s) {
      return std::make_unique<core::ScheduledStation>(cfgs[s],
                                                      neighbor_tables[s]);
    };
    if (probe != nullptr)
      rejoin = trialbench::wrap_rejoin(std::move(rejoin), *probe);
  }
  if (probe != nullptr) {
    for (StationId s = 0; s < spec.stations; ++s) {
      std::unique_ptr<sim::MacProtocol> mac =
          spec.mac == runner::MacKind::kScheme
              ? std::move(scenario.net.macs[s])
              : runner::make_baseline_mac(spec);
      sim.set_mac(s, std::make_unique<trialbench::ProbeMac>(std::move(mac),
                                                            *probe));
    }
    sim.set_router(trialbench::wrap_router(scenario.tables.router(), *probe));
  } else {
    runner::install_macs(sim, scenario, spec);
    sim.set_router(scenario.tables.router());
  }
  rec.install_s = lap();

  Rng traffic_rng = Rng(seed).split(2);
  for (const auto& inj : sim::poisson_traffic(
           spec.rate_pps, spec.duration_s, scenario.net.packet_bits,
           sim::uniform_pairs(scenario.gains.size()), traffic_rng))
    sim.inject(inj.time_s, inj.packet);
  const double total = spec.duration_s + spec.drain_s;
  std::optional<dynamics::DynamicsEngine> dynamics_engine;
  if (dyn.enabled())
    dynamics_engine.emplace(dyn, sim, placement_copy, spec.stations,
                            std::move(rejoin), Rng(seed).split(3));
  rec.inject_s = lap();
  rec.setup_s = seconds_since(start);
  if (probe != nullptr) rec.peak_after_setup_mb = peak_rss_mb();

  const auto loop_start = Clock::now();
  if (dynamics_engine) {
    dynamics_engine->run(total);
  } else {
    sim.run_until(total);
  }
  rec.loop_s = seconds_since(loop_start);
  if (probe != nullptr) rec.peak_after_loop_mb = peak_rss_mb();

  rec.result = runner::summarize(sim.metrics(), total);
  rec.queue = sim.queue_stats();
  rec.result.events_processed = rec.queue.events_processed;
  rec.result.peak_queue_bytes = rec.queue.peak_bytes;
  if (dynamics_engine) {
    std::vector<double> samples = dynamics_engine->recovery_samples();
    std::sort(samples.begin(), samples.end());
    rec.result.median_recovery_s =
        samples.empty() ? 0.0 : samples[samples.size() / 2];
  }
  rec.trial_s = seconds_since(start);
  if (probe_engine != nullptr) {
    rec.engine_floor_matches = probe_engine->inner().thermal_noise().value() ==
                               sim.engine().thermal_noise().value();
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Output

void write_result(runner::json::Writer& w, const runner::TrialResult& r) {
  w.begin_object();
  w.key("offered").value(r.offered);
  w.key("delivered").value(r.delivered);
  w.key("hop_attempts").value(r.hop_attempts);
  w.key("hop_successes").value(r.hop_successes);
  w.key("type1_losses").value(r.type1_losses);
  w.key("type2_losses").value(r.type2_losses);
  w.key("type3_losses").value(r.type3_losses);
  w.key("mac_drops").value(r.mac_drops);
  w.key("delivery_ratio").value(r.delivery_ratio);
  w.key("mean_delay_s").value(r.mean_delay_s);
  w.key("mean_hops").value(r.mean_hops);
  w.key("tx_per_hop").value(r.tx_per_hop);
  w.key("mean_duty").value(r.mean_duty);
  w.key("aborted_losses").value(r.aborted_losses);
  w.key("station_leaves").value(r.station_leaves);
  w.key("station_joins").value(r.station_joins);
  w.key("churn_drops").value(r.churn_drops);
  w.key("noise_bursts").value(r.noise_bursts);
  w.key("recoveries").value(r.recoveries);
  w.key("mean_recovery_s").value(r.mean_recovery_s);
  w.key("median_recovery_s").value(r.median_recovery_s);
  w.key("events_processed").value(r.events_processed);
  w.key("peak_queue_bytes").value(r.peak_queue_bytes);
  w.end_object();
}

void write_span(runner::json::Writer& w, const std::string& name,
                const trialbench::Span& span) {
  w.key(name + ".calls").value(span.calls);
  w.key(name + ".self_s").value(span.self_s);
}

/// The per-layer figures of one traced trial, under their metric names.
void write_layers(runner::json::Writer& w, const runner::ScenarioSpec& spec,
                  const TrialRecord& rec, const LayerCounters& c) {
  const auto m = static_cast<std::uint64_t>(spec.stations);
  w.begin_object();
  w.key("geo.placement_s").value(rec.placement_s);
  w.key("radio.gains_s").value(rec.gains_s);
  w.key("core.network_s").value(rec.network_s);
  w.key("routing.graph_s").value(rec.graph_s);
  w.key("routing.tables_s").value(rec.tables_s);
  w.key("sim.construct_s").value(rec.construct_s);
  w.key("sim.install_s").value(rec.install_s);
  w.key("sim.inject_s").value(rec.inject_s);
  // Computed sizes: the M x M gain matrix, and RoutingTables' two M x M
  // arrays (StationId next hops + double costs).
  w.key("radio.matrix_bytes").value(m * m * sizeof(double));
  w.key("routing.table_bytes")
      .value(m * m * (sizeof(StationId) + sizeof(double)));
  w.key("routing.edges").value(rec.edges);
  w.key("mem.after_setup_mb").value(rec.peak_after_setup_mb);
  w.key("mem.loop_growth_mb")
      .value(rec.peak_after_loop_mb - rec.peak_after_setup_mb);
  w.key("events.processed").value(rec.queue.events_processed);
  w.key("events.peak_entries")
      .value(static_cast<std::uint64_t>(rec.queue.peak_entries));
  w.key("events.peak_bytes")
      .value(static_cast<std::uint64_t>(rec.queue.peak_bytes));
  w.key("events.compactions").value(rec.queue.compactions);
  w.key("medium.tx_unicast").value(c.tx_unicast);
  w.key("medium.tx_broadcast").value(c.tx_broadcast);
  w.key("medium.tx_noise").value(c.tx_noise);
  w.key("medium.tx_aborted").value(c.tx_aborted);
  w.key("medium.rx_completed").value(c.rx_completed);
  w.key("medium.rx_delivered").value(c.rx_delivered);
  w.key("medium.rx_type1").value(c.rx_type1);
  w.key("medium.rx_type2").value(c.rx_type2);
  w.key("medium.rx_type3").value(c.rx_type3);
  w.key("medium.rx_aborted").value(c.rx_aborted);
  w.key("medium.rx_of_broadcast").value(c.rx_of_broadcast);
  write_span(w, "engine.tx_started", c.tx_started);
  write_span(w, "engine.tx_ended", c.tx_ended);
  write_span(w, "engine.open_rx", c.open_rx);
  w.key("engine.close_rx.calls").value(c.close_rx);
  w.key("engine.interference.calls").value(c.interference);
  w.key("engine.gain.calls").value(c.gain);
  w.key("engine.power_at.calls").value(c.power_at);
  w.key("engine.affected_visits").value(c.affected_visits);
  w.key("engine.sender_visits").value(c.sender_visits);
  w.key("medium.visitor_s").value(c.visitor_s);
  write_span(w, "mac.on_start", c.on_start);
  write_span(w, "mac.on_enqueue", c.on_enqueue);
  write_span(w, "mac.on_timer", c.on_timer);
  write_span(w, "mac.on_transmit_end", c.on_transmit_end);
  write_span(w, "mac.on_broadcast_received", c.on_broadcast_received);
  w.key("mac.ctx.transmit.calls").value(c.ctx_transmit);
  w.key("mac.ctx.set_timer.calls").value(c.ctx_set_timer);
  w.key("mac.ctx.cancel_timer.calls").value(c.ctx_cancel_timer);
  write_span(w, "network.route", c.route);
  w.key("dynamics.leaves").value(rec.result.station_leaves);
  w.key("dynamics.rejoins").value(c.rejoin.calls);
  w.key("dynamics.rejoin.self_s").value(c.rejoin.self_s);
  w.key("loop.residual_s").value(rec.loop_s - c.probed_loop_s());
  w.end_object();
}

void write_trial(runner::json::Writer& w, const runner::ScenarioSpec& spec,
                 std::size_t input, const TrialRecord& rec,
                 const LayerCounters* probe) {
  w.begin_object();
  w.key("input").value(static_cast<std::uint64_t>(input));
  w.key("traced").value(probe != nullptr);
  w.key("setup_s").value(rec.setup_s);
  w.key("loop_s").value(rec.loop_s);
  w.key("trial_s").value(rec.trial_s);
  w.key("engine_floor_matches").value(rec.engine_floor_matches);
  w.key("result");
  write_result(w, rec.result);
  if (probe != nullptr) {
    w.key("layers");
    write_layers(w, spec, rec, *probe);
  }
  w.end_object();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t inputs = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  bool reference = false;
};

/// Runs one trial into the output array; a throwing trial is recorded as an
/// error entry instead.
void trial_into(runner::json::Writer& w, const runner::ScenarioSpec& spec,
                const std::vector<std::uint64_t>& seeds, std::size_t input,
                bool traced) {
  try {
    LayerCounters counters;
    const TrialRecord rec =
        run_one(spec, seeds[input], traced ? &counters : nullptr);
    write_trial(w, spec, input, rec, traced ? &counters : nullptr);
  } catch (const std::exception& e) {
    w.begin_object().key("error").value(e.what()).end_object();
  }
}

int run(const Options& opt) {
  const auto spec = workload(opt.workload, opt.smoke);
  if (!spec) {
    std::cerr << "unknown workload: " << opt.workload << '\n';
    return 2;
  }
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t k = 0; k < opt.inputs; ++k)
    seeds.push_back(runner::trial_seed(kMasterSeed, opt.seed * opt.inputs + k));
  runner::json::Writer w(std::cout, 0);
  w.begin_object();
  w.key("workload").value(opt.workload);
  w.key("seed").value(opt.seed);
  w.key("trials").begin_array();
  const auto start = Clock::now();
  std::vector<double> probe_s;
  double peak_mb = 0.0;
  // Probes the host between rounds; the peak resident set is kept across
  // the probe's buffer, then reset so that the next round starts clean.
  const auto probe = [&] {
    peak_mb = std::max(peak_mb, peak_rss_mb());
    probe_host(probe_s);
    reset_peak_rss();
  };
  // Rounds repeat while the longest round so far still fits in the budget,
  // so a run measures for at most --seconds (and at least one round).
  double longest_round_s = 0.0;
  const auto fits_another = [&] {
    return seconds_since(start) + longest_round_s <= opt.seconds;
  };
  probe();
  if (opt.traced) {
    // The first trial is traced so the memory peaks it reads belong to it.
    trial_into(w, *spec, seeds, 0, true);
    probe();
    do {
      const auto round_start = Clock::now();
      trial_into(w, *spec, seeds, 0, false);
      trial_into(w, *spec, seeds, 0, true);
      longest_round_s = std::max(longest_round_s, seconds_since(round_start));
      probe();
    } while (fits_another());
  } else {
    do {
      const auto round_start = Clock::now();
      for (std::size_t k = 0; k < seeds.size(); ++k)
        trial_into(w, *spec, seeds, k, false);
      longest_round_s = std::max(longest_round_s, seconds_since(round_start));
      probe();
    } while (fits_another());
  }
  w.end_array();
  w.key("peak_rss_mb").value(std::max(peak_mb, peak_rss_mb()));
  w.key("host_probe_s").begin_array();
  for (const double s : probe_s) w.value(s);
  w.end_array();
  if (opt.reference) {
    // A traced run times input 0 only, so only it needs a reference.
    w.key("references").begin_array();
    for (std::size_t k = 0; k < (opt.traced ? 1 : seeds.size()); ++k)
      write_result(w, runner::run_trial(*spec, seeds[k]));
    w.end_array();
  }
  w.end_object();
  std::cout << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const auto usage = [] {
    std::cerr << "usage: trialbench --workload NAME [--seed N] [--inputs K] "
                 "[--seconds S] [--traced] [--smoke] [--reference]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--inputs" && has_value) {
      opt.inputs = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--reference") {
      opt.reference = true;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.inputs == 0) return usage();
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
