// drn_sim — command-line driver for the whole stack: build a random network,
// pick a MAC, offer Poisson traffic, print the outcome. The quickest way for
// a downstream user to poke at the system without writing C++.
//
//   $ drn_sim --stations 50 --region 1200 --mac scheme --rate 300
//   $ drn_sim --mac aloha --seed 9 --csv-trace /tmp/trace.csv
//   $ drn_sim --help
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/table.hpp"
#include "audit/invariant_auditor.hpp"
#include "cli_flags.hpp"
#include "radio/interference_engine.hpp"
#include "runner/json.hpp"
#include "runner/scenario.hpp"
#include "sim/trace.hpp"

namespace {

using namespace drn;

struct Options {
  runner::ScenarioSpec spec;
  std::uint64_t seed = 1;
  std::string csv_trace;
  std::size_t trace_cap = 0;
  bool json = false;
  bool help = false;
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
  --max-power W         scheme power limit          (default 1.6e-4)
                        (baseline MACs radiate a fixed 1e-4 W)

channel access
  --mac NAME            scheme|aloha|slotted|csma|maca   (default scheme)
  --receive-fraction P  schedule receive duty p     (default 0.3)
  --slot S              slot duration               (default 0.01)

workload
  --rate PPS            aggregate Poisson offer     (default 200)
  --duration S          offer window                (default 2)
  --drain S             extra time to drain queues  (default 60)

interference engine
  --engine NAME         compensated|nearfar         (default compensated)
                        compensated = exact Neumaier accumulation over the
                        gain matrix; nearfar = grid-indexed exact near field
                        + aggregated far-field din
  --cutoff METERS       nearfar only: exact-summation radius (default 0 =
                        2x the free-space reach of the power budget)
  --cell METERS         nearfar only: grid cell side (default 0 = cutoff/4)

network dynamics (all off by default; see DESIGN.md "Network dynamics")
)" << cli::kDynamicsHelp << R"(
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
  cli::Flags kv;
  if (!cli::tokenize(argc, argv, kv, opt.help)) return false;
  if (opt.help) return true;
  runner::ScenarioSpec& spec = opt.spec;
  auto& net = spec.net;
  cli::take(kv, "stations", spec.stations);
  cli::take(kv, "region", spec.region_m);
  cli::take(kv, "seed", opt.seed);
  if (auto it = kv.find("mac"); it != kv.end()) {
    const auto mac = runner::parse_mac(it->second);
    if (!mac) {
      std::cerr << "unknown --mac " << it->second << " (try --help)\n";
      return false;
    }
    spec.mac = *mac;
    kv.erase(it);
  }
  cli::take(kv, "rate", spec.rate_pps);
  cli::take(kv, "duration", spec.duration_s);
  cli::take(kv, "drain", spec.drain_s);
  cli::take(kv, "receive-fraction", net.receive_fraction);
  cli::take(kv, "slot", net.slot_s);
  cli::take(kv, "target-power", net.target_received_w);
  cli::take(kv, "max-power", net.max_power_w);
  cli::take(kv, "bandwidth", spec.bandwidth_hz);
  cli::take(kv, "data-rate", spec.data_rate_bps);
  cli::take(kv, "margin", spec.margin_db);
  bool dual_slope = false;
  double breakpoint_m = 100.0;
  if (!cli::take_switch(kv, "dual-slope", dual_slope)) return false;
  // Like the jammer knobs: --breakpoint without the model it tunes would be
  // dropped, so remember whether it was given.
  const bool breakpoint_given = kv.count("breakpoint") > 0;
  cli::take(kv, "breakpoint", breakpoint_m);
  cli::take(kv, "shadowing", spec.shadowing_db);
  cli::take(kv, "csv-trace", opt.csv_trace);
  cli::take(kv, "trace-cap", opt.trace_cap);
  if (!cli::take_shared(kv, spec)) return false;
  if (!cli::take_switch(kv, "json", opt.json)) return false;
  if (!cli::all_consumed(kv)) return false;
  if (opt.trace_cap > 0 && opt.csv_trace.empty()) {
    std::cerr << "--trace-cap only bounds a trace being recorded; "
                 "combine it with --csv-trace\n";
    return false;
  }
  if (breakpoint_given && !dual_slope) {
    std::cerr << "--breakpoint tunes the two-ray model; combine it with "
                 "--dual-slope 1\n";
    return false;
  }
  if (dual_slope && breakpoint_m <= 0.0) {
    std::cerr << "--breakpoint must be > 0 with --dual-slope 1\n";
    return false;
  }
  if (!std::isfinite(spec.shadowing_db) || spec.shadowing_db < 0.0) {
    std::cerr << "--shadowing must be finite and >= 0 (0 = none)\n";
    return false;
  }
  if (!cli::check_workload({&spec.stations, 1}, {&spec.region_m, 1},
                           {&spec.rate_pps, 1}, spec) ||
      !cli::finish_shared(spec, spec.stations))
    return false;
  if (dual_slope) spec.dual_slope_breakpoint_m = breakpoint_m;
  return true;
}

/// One machine-readable line on stdout (schema drn-sim-v2), nothing else.
void print_json(const Options& opt, const runner::Trial& trial,
                const runner::TrialResult& r) {
  const runner::ScenarioSpec& spec = opt.spec;
  const auto routing = trial.tables().stats();
  runner::json::Writer w(std::cout, 0);
  w.begin_object();
  w.key("schema").value("drn-sim-v2");
  w.key("stations").value(spec.stations);
  w.key("region_m").value(spec.region_m);
  w.key("mac").value(runner::mac_name(spec.mac));
  w.key("engine").value(radio::engine_name(spec.engine));
  w.key("seed").value(opt.seed);
  w.key("rate_pps").value(spec.rate_pps);
  w.key("duration_s").value(spec.duration_s);
  w.key("connected").value(trial.connected());
  w.key("offered").value(r.offered);
  w.key("delivered").value(r.delivered);
  w.key("delivery_ratio").value(r.delivery_ratio);
  w.key("hop_attempts").value(r.hop_attempts);
  w.key("type1_losses").value(r.type1_losses);
  w.key("type2_losses").value(r.type2_losses);
  w.key("type3_losses").value(r.type3_losses);
  w.key("mac_drops").value(r.mac_drops);
  w.key("mean_delay_s").value(r.mean_delay_s);
  w.key("mean_hops").value(r.mean_hops);
  w.key("mean_duty").value(r.mean_duty);
  // Lazy routing work: destinations whose tree was built, stations settled.
  w.key("routing_trees").value(routing.trees);
  w.key("routing_settled").value(routing.settled);
  if (spec.dynamics.enabled()) {
    w.key("aborted_losses").value(r.aborted_losses);
    w.key("station_leaves").value(r.station_leaves);
    w.key("station_joins").value(r.station_joins);
    w.key("churn_drops").value(r.churn_drops);
    w.key("noise_bursts").value(r.noise_bursts);
    w.key("recoveries").value(r.recoveries);
    w.key("median_recovery_s").value(r.median_recovery_s);
  }
  if (trial.auditor()) {
    w.key("audit_checks").value(r.audit_checks);
    w.key("audit_violations").value(r.audit_violations);
  }
  w.end_object();
  std::cout << '\n';
}

void print_table(const Options& opt, const runner::Trial& trial,
                 const runner::TrialResult& r) {
  const runner::ScenarioSpec& spec = opt.spec;
  const auto routing = trial.tables().stats();
  const double gain = spec.net.power().min_gain();
  std::cout << "drn_sim: " << spec.stations << " stations, " << spec.region_m
            << " m disc, MAC=" << runner::mac_name(spec.mac)
            << ", seed=" << opt.seed << ", "
            << (trial.connected() ? "connected" : "NOT fully connected")
            << " (min usable gain " << gain << ", free-space reach "
            << 1.0 / std::sqrt(gain) << " m)\n\n";
  using analysis::Table;
  Table t({"metric", "value"});
  t.add_row({"offered packets", Table::num(r.offered)});
  t.add_row({"delivered", Table::num(r.delivered)});
  t.add_row({"delivery ratio", Table::num(r.delivery_ratio, 4)});
  t.add_row({"hop attempts", Table::num(r.hop_attempts)});
  t.add_row({"type 1 losses", Table::num(r.type1_losses)});
  t.add_row({"type 2 losses", Table::num(r.type2_losses)});
  t.add_row({"type 3 losses", Table::num(r.type3_losses)});
  t.add_row({"MAC drops (incl. unroutable)", Table::num(r.mac_drops)});
  if (r.delivered > 0) {
    t.add_row({"mean delay (ms)", Table::num(r.mean_delay_s * 1e3, 2)});
    t.add_row({"mean hops", Table::num(r.mean_hops, 2)});
  }
  t.add_row({"mean transmit duty", Table::num(r.mean_duty, 4)});
  t.add_row({"routing trees built / stations settled",
             Table::num(routing.trees) + " / " + Table::num(routing.settled)});
  if (spec.dynamics.enabled()) {
    t.add_row({"aborted (churn) losses", Table::num(r.aborted_losses)});
    t.add_row({"station leaves / joins", Table::num(r.station_leaves) +
                                             " / " +
                                             Table::num(r.station_joins)});
    t.add_row({"churn queue drops", Table::num(r.churn_drops)});
    t.add_row({"jammer noise bursts", Table::num(r.noise_bursts)});
    if (r.recoveries > 0) {
      t.add_row({"recoveries measured", Table::num(r.recoveries)});
      t.add_row({"median recovery (s)", Table::num(r.median_recovery_s, 3)});
    }
  }
  if (trial.auditor()) {
    t.add_row({"audit checks", Table::num(r.audit_checks)});
    t.add_row({"audit violations", Table::num(r.audit_violations)});
  }
  t.print(std::cout);
}

int run(const Options& opt) {
  runner::Trial trial(opt.spec, opt.seed);
  sim::TraceRecorder trace(opt.trace_cap);
  if (!opt.csv_trace.empty()) trial.simulator().add_observer(&trace);
  const runner::TrialResult r = trial.run();
  const audit::InvariantAuditor* auditor = trial.auditor();
  const bool audit_failed = auditor && !auditor->ok();
  if (opt.json) {
    print_json(opt, trial, r);
    if (audit_failed) std::cerr << auditor->report();
  } else {
    print_table(opt, trial, r);
    if (audit_failed) std::cout << '\n' << auditor->report();
  }
  if (!opt.csv_trace.empty()) {
    std::ofstream out(opt.csv_trace);
    if (!out) {
      std::cerr << "cannot write " << opt.csv_trace << '\n';
      return 3;
    }
    trace.write_transmissions_csv(out);
    out << '\n';
    trace.write_receptions_csv(out);
    if (!opt.json) {
      std::cout << "\ntrace written to " << opt.csv_trace << '\n';
      if (trace.dropped_transmissions() > 0 ||
          trace.dropped_receptions() > 0) {
        std::cout << "trace cap shed " << trace.dropped_transmissions()
                  << " transmissions, " << trace.dropped_receptions()
                  << " receptions\n";
      }
    }
  }
  return audit_failed ? 4 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return drn::cli::run_cli<Options>(argc, argv, parse, print_help, run);
}
