// drn_sim — command-line driver for the whole stack: build a random network,
// pick a MAC, offer Poisson traffic, print the outcome. The quickest way for
// a downstream user to poke at the system without writing C++.
//
//   $ drn_sim --stations 50 --region 1200 --mac scheme --rate 300
//   $ drn_sim --mac aloha --seed 9 --csv-trace /tmp/trace.csv
//   $ drn_sim --help
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "audit/invariant_auditor.hpp"
#include "runner/json.hpp"
#include "baselines/aloha.hpp"
#include "baselines/csma.hpp"
#include "baselines/maca.hpp"
#include "baselines/slotted_aloha.hpp"
#include "core/network_builder.hpp"
#include "dynamics/dynamics.hpp"
#include "geo/placement.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation.hpp"
#include "routing/dijkstra.hpp"
#include "routing/graph.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sim/traffic.hpp"

namespace {

using namespace drn;

struct Options {
  std::size_t stations = 40;
  double region_m = 1000.0;
  std::uint64_t seed = 1;
  std::string mac = "scheme";
  double rate_pps = 200.0;
  double duration_s = 2.0;
  double drain_s = 60.0;
  double receive_fraction = 0.3;
  double slot_s = 0.01;
  double target_received_w = 1.0e-9;
  double max_power_w = 1.6e-4;
  double bandwidth_hz = 200.0e6;
  double data_rate_bps = 1.0e6;
  double margin_db = 5.0;
  bool dual_slope = false;
  double breakpoint_m = 100.0;
  double shadowing_db = 0.0;
  std::string engine = "compensated";
  double cutoff_m = 0.0;
  double cell_m = 0.0;
  std::string csv_trace;
  std::size_t trace_cap = 0;
  bool json = false;
  bool audit = false;
  bool help = false;
  // Network dynamics (src/dynamics/); all off by default.
  double churn_rate_per_s = 0.0;
  double churn_downtime_s = 5.0;
  double mobility_mps = 0.0;
  double mobility_step_s = 0.5;
  double drift_ppm_per_s = 0.0;
  double drift_step_s = 1.0;
  std::size_t jammers = 0;
  double jammer_period_s = 0.5;
  double jammer_duty = 0.2;
  double jammer_power_w = 1.0e-3;
  /// Maintenance beacon interval for the scheme under churn/drift; 0 = auto
  /// (0.5 s when churn or drift is on, otherwise no beacons).
  double beacon_s = 0.0;
};

void print_help() {
  std::cout <<
      R"(drn_sim - dense packet radio network simulator (Shepard, SIGCOMM '96)

usage: drn_sim [--key value]...

topology
  --stations N          station count               (default 40)
  --region METERS       disc radius                 (default 1000)
  --seed N              master seed                 (default 1)
  --dual-slope 0|1      two-ray propagation         (default 0 = free space)
  --breakpoint METERS   dual-slope breakpoint       (default 100)
  --shadowing DB        log-normal shadowing sigma  (default 0)

radio design point
  --bandwidth HZ        spread bandwidth W          (default 2e8)
  --data-rate BPS       design rate C               (default 1e6)
  --margin DB           detection margin            (default 5)
  --target-power W      delivered power target      (default 1e-9)
  --max-power W         transmit power limit        (default 1.6e-4)

channel access
  --mac NAME            scheme|aloha|slotted|csma|maca   (default scheme)
  --receive-fraction P  schedule receive duty p     (default 0.3)
  --slot S              slot duration               (default 0.01)

workload
  --rate PPS            aggregate Poisson offer     (default 200)
  --duration S          offer window                (default 2)
  --drain S             extra time to drain queues  (default 60)

interference engine
  --engine NAME         dense|compensated|nearfar   (default compensated)
                        dense = legacy subtract-and-clamp accounting (drifts
                        over long runs, kept as a baseline); compensated =
                        exact Neumaier accumulation; nearfar = grid-indexed
                        exact near field + aggregated far-field din
  --cutoff METERS       nearfar only: exact-summation radius (default 0 =
                        2x the free-space reach of the power budget)
  --cell METERS         nearfar only: grid cell side (default 0 = cutoff/4)

network dynamics (all off by default; see DESIGN.md "Network dynamics")
  --churn RATE          station crash rate, crashes/s  (default 0 = off)
  --churn-downtime S    mean downtime before rejoin    (default 5)
  --mobility MPS        random-waypoint speed          (default 0 = off)
  --mobility-step S     position update interval       (default 0.5)
  --drift PPMPS         clock slope half-width, ppm/s  (default 0 = off)
  --drift-step S        rate-step interval             (default 1)
  --jammers N           duty-cycled noise stations     (default 0)
  --jammer-period S     jammer burst period            (default 0.5)
  --jammer-duty F       fraction of period radiating   (default 0.2)
  --jammer-power W      jammer burst power             (default 1e-3)
  --beacon S            scheme maintenance-beacon interval; 0 = auto
                        (0.5 s when churn or drift is on)

output
  --csv-trace PATH      dump the physical-layer trace as CSV
  --trace-cap N         keep only the newest N trace events per stream
                        (0 = unbounded; requires --csv-trace)
  --json 0|1            one-line JSON summary instead of the table (default 0)
  --audit 0|1           re-derive the physics invariants (Type 1/2/3
                        taxonomy, SINR identities, half-duplex, despreading
                        cap) from the event stream and cross-check the
                        metrics; exit 4 on any violation (default 0)
  --help                this text
)";
}

bool parse(int argc, char** argv, Options& opt) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      opt.help = true;
      return true;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::cerr << "bad argument: " << key << " (try --help)\n";
      return false;
    }
    kv[key.substr(2)] = argv[++i];
  }
  auto num = [&](const char* name, double& out) {
    if (auto it = kv.find(name); it != kv.end()) {
      out = std::stod(it->second);
      kv.erase(it);
    }
  };
  auto integer = [&](const char* name, auto& out) {
    if (auto it = kv.find(name); it != kv.end()) {
      out = static_cast<std::remove_reference_t<decltype(out)>>(
          std::stoull(it->second));
      kv.erase(it);
    }
  };
  // Flags take exactly "0" or "1"; anything fuzzier is a user error.
  auto flag = [&](const char* name, bool& out) {
    auto it = kv.find(name);
    if (it == kv.end()) return true;
    if (it->second != "0" && it->second != "1") {
      std::cerr << "bad --" << name << " value: " << it->second
                << " (want 0 or 1)\n";
      return false;
    }
    out = it->second == "1";
    kv.erase(it);
    return true;
  };
  integer("stations", opt.stations);
  num("region", opt.region_m);
  integer("seed", opt.seed);
  if (auto it = kv.find("mac"); it != kv.end()) {
    opt.mac = it->second;
    kv.erase(it);
  }
  num("rate", opt.rate_pps);
  num("duration", opt.duration_s);
  num("drain", opt.drain_s);
  num("receive-fraction", opt.receive_fraction);
  num("slot", opt.slot_s);
  num("target-power", opt.target_received_w);
  num("max-power", opt.max_power_w);
  num("bandwidth", opt.bandwidth_hz);
  num("data-rate", opt.data_rate_bps);
  num("margin", opt.margin_db);
  if (!flag("dual-slope", opt.dual_slope)) return false;
  num("breakpoint", opt.breakpoint_m);
  num("shadowing", opt.shadowing_db);
  if (auto it = kv.find("engine"); it != kv.end()) {
    opt.engine = it->second;
    kv.erase(it);
  }
  num("cutoff", opt.cutoff_m);
  num("cell", opt.cell_m);
  if (auto it = kv.find("csv-trace"); it != kv.end()) {
    opt.csv_trace = it->second;
    kv.erase(it);
  }
  integer("trace-cap", opt.trace_cap);
  const bool jammer_knobs = kv.count("jammer-period") > 0 ||
                            kv.count("jammer-duty") > 0 ||
                            kv.count("jammer-power") > 0;
  num("churn", opt.churn_rate_per_s);
  num("churn-downtime", opt.churn_downtime_s);
  num("mobility", opt.mobility_mps);
  num("mobility-step", opt.mobility_step_s);
  num("drift", opt.drift_ppm_per_s);
  num("drift-step", opt.drift_step_s);
  integer("jammers", opt.jammers);
  num("jammer-period", opt.jammer_period_s);
  num("jammer-duty", opt.jammer_duty);
  num("jammer-power", opt.jammer_power_w);
  num("beacon", opt.beacon_s);
  if (!flag("json", opt.json)) return false;
  if (!flag("audit", opt.audit)) return false;
  if (!kv.empty()) {
    std::cerr << "unknown option: --" << kv.begin()->first << " (try --help)\n";
    return false;
  }
  if (opt.trace_cap > 0 && opt.csv_trace.empty()) {
    std::cerr << "--trace-cap only bounds a trace being recorded; "
                 "combine it with --csv-trace\n";
    return false;
  }
  if (!radio::parse_engine(opt.engine)) {
    std::cerr << "unknown --engine " << opt.engine << " (try --help)\n";
    return false;
  }
  if ((opt.cutoff_m > 0.0 || opt.cell_m > 0.0) && opt.engine != "nearfar") {
    std::cerr << "--cutoff/--cell tune the near/far engine; "
                 "combine them with --engine nearfar\n";
    return false;
  }
  if (opt.churn_rate_per_s < 0.0 || opt.mobility_mps < 0.0 ||
      opt.drift_ppm_per_s < 0.0) {
    std::cerr << "--churn/--mobility/--drift rates must be >= 0\n";
    return false;
  }
  if (opt.churn_rate_per_s > 0.0 && opt.churn_downtime_s <= 0.0) {
    std::cerr << "--churn-downtime must be > 0 when --churn is on\n";
    return false;
  }
  if (opt.mobility_mps > 0.0 && opt.mobility_step_s <= 0.0) {
    std::cerr << "--mobility-step must be > 0 when --mobility is on\n";
    return false;
  }
  if (opt.drift_ppm_per_s > 0.0 && opt.drift_step_s <= 0.0) {
    std::cerr << "--drift-step must be > 0 when --drift is on\n";
    return false;
  }
  if (opt.jammers > 0 &&
      (opt.jammer_period_s <= 0.0 || opt.jammer_duty <= 0.0 ||
       opt.jammer_duty > 1.0 || opt.jammer_power_w <= 0.0)) {
    std::cerr << "--jammer-period/--jammer-power must be > 0 and "
                 "--jammer-duty in (0, 1]\n";
    return false;
  }
  if (opt.jammers == 0 && jammer_knobs) {
    std::cerr << "--jammer-* tune the jammers; combine them with "
                 "--jammers N\n";
    return false;
  }
  if (opt.beacon_s < 0.0) {
    std::cerr << "--beacon must be >= 0\n";
    return false;
  }
  return true;
}

int run(const Options& opt) {
  Rng rng(opt.seed);
  const geo::Placement placement =
      geo::uniform_disc(opt.stations, opt.region_m, rng);

  std::shared_ptr<radio::PropagationModel> model;
  if (opt.dual_slope) {
    model = std::make_shared<radio::DualSlopePropagation>(radio::Meters{opt.breakpoint_m});
  } else {
    model = std::make_shared<radio::FreeSpacePropagation>();
  }
  if (opt.shadowing_db > 0.0) {
    model = std::make_shared<radio::LogNormalShadowing>(
        model, radio::Decibels{opt.shadowing_db}, opt.seed ^ 0x5AD0ull);
  }
  auto gains = radio::PropagationMatrix::from_placement(placement, *model);
  const radio::ReceptionCriterion criterion(radio::Hertz{opt.bandwidth_hz},
                                            radio::BitsPerSecond{opt.data_rate_bps},
                                            radio::Decibels{opt.margin_db});

  core::ScheduledNetworkConfig net_cfg;
  net_cfg.slot_s = opt.slot_s;
  net_cfg.receive_fraction = opt.receive_fraction;
  net_cfg.target_received_w = opt.target_received_w;
  net_cfg.max_power_w = opt.max_power_w;
  // Under churn or drift the scheme needs maintenance beacons to evict
  // ghosts, re-adopt returnees and re-fit drifting clocks.
  const bool needs_beacons =
      opt.churn_rate_per_s > 0.0 || opt.drift_ppm_per_s > 0.0;
  if (opt.mac == "scheme" && (needs_beacons || opt.beacon_s > 0.0)) {
    net_cfg.beacon_interval_s = opt.beacon_s > 0.0 ? opt.beacon_s : 0.5;
    if (opt.churn_rate_per_s > 0.0) {
      net_cfg.neighbor_timeout_s = 12.0 * net_cfg.beacon_interval_s;
      net_cfg.readopt_neighbors = true;
    }
  }
  Rng build_rng = rng.split(1);
  auto net = core::build_scheduled_network(gains, criterion, net_cfg, build_rng);

  const double min_gain = opt.target_received_w / opt.max_power_w;
  const auto graph = routing::Graph::min_energy(gains, min_gain);
  const auto tables = routing::RoutingTables::build(graph);

  // Jammers are extra stations appended after the real network; routing and
  // traffic never touch them.
  geo::Placement all_placement = placement;
  if (opt.jammers > 0) {
    Rng jammer_rng = Rng(opt.seed).split(4);
    all_placement = dynamics::with_jammers(all_placement, opt.jammers,
                                           opt.region_m, jammer_rng);
  }
  sim::SimulatorConfig sim_cfg{criterion};
  sim_cfg.seed = opt.seed;
  const auto engine_kind = *radio::parse_engine(opt.engine);
  std::optional<sim::Simulator> sim_box;
  if (engine_kind == radio::InterferenceEngineKind::kNearFar) {
    radio::NearFarConfig nf;
    nf.cutoff = radio::Meters{
        opt.cutoff_m > 0.0 ? opt.cutoff_m : 2.0 / std::sqrt(min_gain)};
    nf.cell = radio::Meters{opt.cell_m};
    sim_box.emplace(radio::make_nearfar_engine(all_placement, model, nf),
                    sim_cfg);
  } else {
    sim_cfg.engine = engine_kind;
    if (opt.jammers > 0) {
      sim_box.emplace(
          radio::PropagationMatrix::from_placement(all_placement, *model),
          sim_cfg);
    } else {
      // Handed over, not copied: nothing below reads `gains`.
      sim_box.emplace(std::move(gains), sim_cfg);
    }
  }
  sim::Simulator& sim = *sim_box;
  if (opt.mobility_mps > 0.0 &&
      engine_kind != radio::InterferenceEngineKind::kNearFar)
    sim.enable_mobility(all_placement, model);
  sim::TraceRecorder trace(opt.trace_cap);
  if (!opt.csv_trace.empty()) sim.add_observer(&trace);
  std::unique_ptr<audit::InvariantAuditor> auditor;
  if (opt.audit) {
    auditor = std::make_unique<audit::InvariantAuditor>(sim);
    sim.add_observer(auditor.get());
  }

  // One fresh-MAC builder shared by initial install and churn rejoin
  // (baselines reboot stateless; the scheme warm-reboots from a snapshot).
  std::function<std::unique_ptr<sim::MacProtocol>(StationId)> fresh_mac;
  if (opt.mac == "aloha" || opt.mac == "slotted" || opt.mac == "csma") {
    baselines::ContentionConfig cc;
    cc.power_w = opt.max_power_w;
    cc.max_retries = 6;
    cc.backoff_mean_s = opt.slot_s;
    fresh_mac = [cc, &opt](StationId) -> std::unique_ptr<sim::MacProtocol> {
      if (opt.mac == "aloha")
        return std::make_unique<baselines::PureAloha>(cc);
      if (opt.mac == "slotted")
        return std::make_unique<baselines::SlottedAloha>(cc,
                                                         opt.slot_s / 4.0);
      return std::make_unique<baselines::CsmaMac>(
          cc, 2.5 * opt.target_received_w);
    };
  } else if (opt.mac == "maca") {
    baselines::MacaConfig mc;
    mc.power_w = opt.max_power_w;
    mc.data_rate_bps = opt.data_rate_bps;
    fresh_mac = [mc](StationId) -> std::unique_ptr<sim::MacProtocol> {
      return std::make_unique<baselines::MacaMac>(mc);
    };
  } else if (opt.mac != "scheme") {
    std::cerr << "unknown --mac " << opt.mac << " (try --help)\n";
    return 2;
  }
  dynamics::MacFactory rejoin;
  if (opt.churn_rate_per_s > 0.0) {
    if (opt.mac == "scheme") {
      std::vector<core::ScheduledStationConfig> cfgs;
      std::vector<core::NeighborTable> tabs;
      cfgs.reserve(net.macs.size());
      tabs.reserve(net.macs.size());
      for (const auto& mac : net.macs) {
        cfgs.push_back(mac->config());
        tabs.push_back(mac->neighbors());
      }
      rejoin = [cfgs = std::move(cfgs), tabs = std::move(tabs)](StationId s) {
        return std::make_unique<core::ScheduledStation>(cfgs[s], tabs[s]);
      };
    } else {
      rejoin = fresh_mac;
    }
  }
  if (opt.mac == "scheme") {
    for (StationId s = 0; s < opt.stations; ++s)
      sim.set_mac(s, std::move(net.macs[s]));
  } else {
    for (StationId s = 0; s < opt.stations; ++s)
      sim.set_mac(s, fresh_mac(s));
  }
  if (opt.jammers > 0) {
    dynamics::JammerSpec js{opt.jammers, opt.jammer_period_s, opt.jammer_duty,
                            opt.jammer_power_w};
    dynamics::install_jammers(sim, opt.stations, js);
  }
  sim.set_router(tables.router());

  Rng traffic_rng = rng.split(2);
  for (const auto& inj : sim::poisson_traffic(
           opt.rate_pps, opt.duration_s, net.packet_bits,
           sim::uniform_pairs(opt.stations), traffic_rng))
    sim.inject(inj.time_s, inj.packet);
  const double total_s = opt.duration_s + opt.drain_s;
  dynamics::DynamicsConfig dc;
  dc.churn_rate_per_s = opt.churn_rate_per_s;
  dc.mean_downtime_s = opt.churn_downtime_s;
  dc.mobility_speed_mps = opt.mobility_mps;
  dc.mobility_step_s = opt.mobility_step_s;
  dc.mobility_region_m = opt.region_m;
  dc.drift_ppm_per_s = opt.drift_ppm_per_s;
  dc.drift_step_s = opt.drift_step_s;
  dc.jammer = {opt.jammers, opt.jammer_period_s, opt.jammer_duty,
               opt.jammer_power_w};
  std::optional<dynamics::DynamicsEngine> driver;
  if (dc.enabled()) {
    driver.emplace(dc, sim, all_placement, opt.stations, std::move(rejoin),
                   Rng(opt.seed).split(3));
    driver->run(total_s);
  } else {
    sim.run_until(total_s);
  }

  const auto& m = sim.metrics();
  if (auditor) {
    auditor->finalize(total_s);
    auditor->cross_check(m);
  }
  const bool audit_failed = auditor && !auditor->ok();
  double median_recovery_s = 0.0;
  if (driver && !driver->recovery_samples().empty()) {
    std::vector<double> samples = driver->recovery_samples();
    std::sort(samples.begin(), samples.end());
    median_recovery_s = samples[samples.size() / 2];
  }
  if (opt.json) {
    // One machine-readable line on stdout (schema drn-sim-v2), nothing else.
    runner::json::Writer w(std::cout, 0);
    w.begin_object();
    w.key("schema").value("drn-sim-v2");
    w.key("stations").value(opt.stations);
    w.key("region_m").value(opt.region_m);
    w.key("mac").value(opt.mac);
    w.key("engine").value(opt.engine);
    w.key("seed").value(opt.seed);
    w.key("rate_pps").value(opt.rate_pps);
    w.key("duration_s").value(opt.duration_s);
    w.key("connected").value(graph.connected());
    w.key("offered").value(m.offered());
    w.key("delivered").value(m.delivered());
    w.key("delivery_ratio").value(m.delivery_ratio());
    w.key("hop_attempts").value(m.hop_attempts());
    w.key("type1_losses").value(m.losses(sim::LossType::kType1));
    w.key("type2_losses").value(m.losses(sim::LossType::kType2));
    w.key("type3_losses").value(m.losses(sim::LossType::kType3));
    w.key("mac_drops").value(m.mac_drops());
    w.key("mean_delay_s").value(m.delivered() > 0 ? m.delay().mean() : 0.0);
    w.key("mean_hops").value(m.delivered() > 0 ? m.hops().mean() : 0.0);
    w.key("mean_duty").value(m.mean_duty_cycle(total_s));
    // Lazy routing work: destinations whose tree was built, stations settled.
    w.key("routing_trees").value(tables.stats().trees);
    w.key("routing_settled").value(tables.stats().settled);
    if (driver) {
      w.key("aborted_losses").value(m.losses(sim::LossType::kAborted));
      w.key("station_leaves").value(m.station_leaves());
      w.key("station_joins").value(m.station_joins());
      w.key("churn_drops").value(m.churn_drops());
      w.key("noise_bursts").value(m.noise_bursts());
      w.key("recoveries").value(m.recovery_s().count());
      w.key("median_recovery_s").value(median_recovery_s);
    }
    if (auditor) {
      w.key("audit_checks").value(auditor->checks_run());
      w.key("audit_violations").value(auditor->violation_count());
    }
    w.end_object();
    std::cout << '\n';
    if (audit_failed) std::cerr << auditor->report();
    if (!opt.csv_trace.empty()) {
      std::ofstream out(opt.csv_trace);
      if (!out) {
        std::cerr << "cannot write " << opt.csv_trace << '\n';
        return 3;
      }
      trace.write_transmissions_csv(out);
      out << '\n';
      trace.write_receptions_csv(out);
    }
    return audit_failed ? 4 : 0;
  }
  std::cout << "drn_sim: " << opt.stations << " stations, " << opt.region_m
            << " m disc, MAC=" << opt.mac << ", seed=" << opt.seed << ", "
            << (graph.connected() ? "connected" : "NOT fully connected")
            << " (min usable gain " << min_gain << ", free-space reach "
            << 1.0 / std::sqrt(min_gain) << " m)\n\n";
  analysis::Table t({"metric", "value"});
  t.add_row({"offered packets", analysis::Table::num(m.offered())});
  t.add_row({"delivered", analysis::Table::num(m.delivered())});
  t.add_row({"delivery ratio", analysis::Table::num(m.delivery_ratio(), 4)});
  t.add_row({"hop attempts", analysis::Table::num(m.hop_attempts())});
  t.add_row({"type 1 losses", analysis::Table::num(m.losses(sim::LossType::kType1))});
  t.add_row({"type 2 losses", analysis::Table::num(m.losses(sim::LossType::kType2))});
  t.add_row({"type 3 losses", analysis::Table::num(m.losses(sim::LossType::kType3))});
  t.add_row({"MAC drops (incl. unroutable)", analysis::Table::num(m.mac_drops())});
  if (m.delivered() > 0) {
    t.add_row({"mean delay (ms)", analysis::Table::num(m.delay().mean() * 1e3, 2)});
    t.add_row({"mean hops", analysis::Table::num(m.hops().mean(), 2)});
  }
  t.add_row({"mean transmit duty",
             analysis::Table::num(m.mean_duty_cycle(total_s), 4)});
  t.add_row({"routing trees built / stations settled",
             analysis::Table::num(tables.stats().trees) + " / " +
                 analysis::Table::num(tables.stats().settled)});
  if (driver) {
    t.add_row({"aborted (churn) losses",
               analysis::Table::num(m.losses(sim::LossType::kAborted))});
    t.add_row({"station leaves / joins",
               analysis::Table::num(m.station_leaves()) + " / " +
                   analysis::Table::num(m.station_joins())});
    t.add_row({"churn queue drops", analysis::Table::num(m.churn_drops())});
    t.add_row({"jammer noise bursts", analysis::Table::num(m.noise_bursts())});
    if (m.recovery_s().count() > 0) {
      t.add_row({"recoveries measured",
                 analysis::Table::num(m.recovery_s().count())});
      t.add_row({"median recovery (s)",
                 analysis::Table::num(median_recovery_s, 3)});
    }
  }
  if (auditor) {
    t.add_row({"audit checks", analysis::Table::num(auditor->checks_run())});
    t.add_row({"audit violations",
               analysis::Table::num(auditor->violation_count())});
  }
  t.print(std::cout);
  if (audit_failed) std::cout << '\n' << auditor->report();

  if (!opt.csv_trace.empty()) {
    std::ofstream out(opt.csv_trace);
    if (!out) {
      std::cerr << "cannot write " << opt.csv_trace << '\n';
      return 3;
    }
    trace.write_transmissions_csv(out);
    out << '\n';
    trace.write_receptions_csv(out);
    std::cout << "\ntrace written to " << opt.csv_trace << '\n';
    if (trace.dropped_transmissions() > 0 || trace.dropped_receptions() > 0) {
      std::cout << "trace cap shed " << trace.dropped_transmissions()
                << " transmissions, " << trace.dropped_receptions()
                << " receptions\n";
    }
  }
  return audit_failed ? 4 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return 2;
  if (opt.help) {
    print_help();
    return 0;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
