// drn_sweep — parallel, deterministic experiment sweeps over the simulator.
//
// Every figure/table in the paper is a sweep over stations, load, MAC and
// seeds; this tool exposes that as a declarative cross-product fanned across
// worker threads, with JSON results suitable for plotting.
//
//   $ drn_sweep --stations 20:320:x2 --seeds 16 --mac scheme,aloha
//               --jobs 8 --json out.json
//   $ drn_sweep --stations 50,100 --rate 200:600:+200 --seeds 4
//
// Determinism: the results document is a pure function of the sweep spec —
// byte-identical for any --jobs value (trial RNG is derived from the trial
// index, never from scheduling). Timing (wall seconds, trials/sec) is
// emitted as a separate JSON line on stderr so results files can be diffed.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "runner/sweep.hpp"

namespace {

using namespace drn;

struct Options {
  runner::SweepSpec spec;
  unsigned jobs = 1;
  std::string json_path;  // empty = stdout
  bool progress = true;
  bool help = false;
};

void print_help() {
  std::cout <<
      R"(drn_sweep - parallel deterministic experiment sweeps (Shepard, SIGCOMM '96)

usage: drn_sweep [--key value]...

Axis values accept three forms:
  a,b,c       explicit list          (e.g. --stations 50,100,200)
  lo:hi:xF    geometric, step xF     (e.g. --stations 20:320:x2 -> 20 40 80 160 320)
  lo:hi:+S    arithmetic, step +S    (e.g. --rate 200:600:+200 -> 200 400 600)
A --stations range rounds each point to the nearest count; a listed or
single --stations value must be a whole number.

axes (cross-product; every combination is a parameter point)
  --stations AXIS       station counts              (default 40)
  --region AXIS         disc radii, metres          (default 1000)
  --mac LIST            scheme|aloha|slotted|csma|maca  (default scheme)
  --rate AXIS           aggregate Poisson pkt/s     (default 200)

replication
  --seeds N             seed replicates per point   (default 1)
  --seed N              master seed                 (default 1)
  --paired 0|1          common random numbers: replicate r of every
                        parameter point shares one seed, pairing MAC
                        comparisons on identical networks (default 0)

workload
  --duration S          offer window                (default 2)
  --drain S             extra drain time            (default 60)

interference engine
  --engine NAME         compensated|nearfar applied to every trial
                        (default compensated; see drn_sim --help)
  --cutoff METERS       nearfar only: exact-summation radius (default 0 =
                        2x the free-space reach of the power budget)
  --cell METERS         nearfar only: grid cell side (default 0 = cutoff/4)

network dynamics (applied to every trial; all off by default)
)" << cli::kDynamicsHelp << R"(
execution
  --jobs N              worker threads (0 = all hardware threads; default 1)
  --progress 0|1        progress ticks on stderr    (default 1)
  --json PATH           results file (default: stdout)
  --audit 0|1           ride an invariant auditor along on every trial; the
                        per-trial verdict lands in the results JSON and any
                        violation fails the sweep with exit 4 (default 0)

The results JSON (schema drn-sweep-v3) is byte-identical for any --jobs
value. Timing {"jobs","trials","wall_s","trials_per_s"} prints to stderr.
)";
}

/// Parses each piece of a comma-separated list with `parse_one`, which
/// returns an optional; nullopt if any piece fails.
template <typename T, typename ParseOne>
std::optional<std::vector<T>> parse_list(const std::string& text,
                                         ParseOne parse_one) {
  std::vector<T> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const auto value = parse_one(text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (!value) return std::nullopt;
    out.push_back(*value);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Parses an axis: "a,b,c" | "lo:hi:xF" | "lo:hi:+S" | single value.
std::optional<std::vector<double>> parse_axis(const std::string& text) {
  std::vector<double> out;
  try {
    if (const auto colon = text.find(':'); colon != std::string::npos) {
      const auto colon2 = text.find(':', colon + 1);
      if (colon2 == std::string::npos || colon2 + 1 >= text.size())
        return std::nullopt;
      const double lo = cli::parse_real(text.substr(0, colon));
      const double hi = cli::parse_real(
          text.substr(colon + 1, colon2 - colon - 1));
      const char kind = text[colon2 + 1];
      const double step = cli::parse_real(text.substr(colon2 + 2));
      if (lo <= 0 && kind == 'x') return std::nullopt;
      if (kind == 'x' && step <= 1.0) return std::nullopt;
      if (kind == '+' && step <= 0.0) return std::nullopt;
      // Tiny epsilon so "20:320:x2" includes 320 despite rounding.
      for (double v = lo; v <= hi * (1.0 + 1e-12);
           v = (kind == 'x') ? v * step : v + step) {
        out.push_back(v);
        if (out.size() > 100000) return std::nullopt;
      }
      if (kind != 'x' && kind != '+') return std::nullopt;
    } else {
      return parse_list<double>(text, [](const std::string& piece) {
        return piece.empty() ? std::nullopt
                             : std::optional<double>(cli::parse_real(piece));
      });
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (out.empty()) return std::nullopt;
  return out;
}

/// A count axis: every value >= 1. A range's points round to the nearest
/// count ("20:320:x1.5"), but a listed value must already be a whole number.
std::optional<std::vector<std::size_t>> parse_count_axis(
    const std::string& text) {
  const auto vals = parse_axis(text);
  if (!vals) return std::nullopt;
  const bool range = text.find(':') != std::string::npos;
  std::vector<std::size_t> out;
  for (double v : *vals) {
    if (v < 1.0 || (!range && v != std::floor(v))) return std::nullopt;
    out.push_back(static_cast<std::size_t>(v + 0.5));
  }
  return out;
}

std::optional<std::vector<runner::MacKind>> parse_mac_list(
    const std::string& text) {
  return parse_list<runner::MacKind>(text, runner::parse_mac);
}

bool parse(int argc, char** argv, Options& opt) {
  cli::Flags kv;
  if (!cli::tokenize(argc, argv, kv, opt.help)) return false;
  if (opt.help) return true;
  // An axis flag, if given, must parse in full.
  const auto axis = [&](const char* name, const auto& parse_axis_text,
                        auto& out) {
    const auto it = kv.find(name);
    if (it == kv.end()) return true;
    auto values = parse_axis_text(it->second);
    if (!values) {
      std::cerr << "bad --" << name << " value: " << it->second
                << " (try --help)\n";
      return false;
    }
    out = std::move(*values);
    kv.erase(it);
    return true;
  };
  if (!axis("stations", parse_count_axis, opt.spec.stations) ||
      !axis("region", parse_axis, opt.spec.region_m) ||
      !axis("mac", parse_mac_list, opt.spec.macs) ||
      !axis("rate", parse_axis, opt.spec.rates_pps))
    return false;
  cli::take(kv, "seeds", opt.spec.seeds);
  cli::take(kv, "seed", opt.spec.master_seed);
  cli::take(kv, "duration", opt.spec.base.duration_s);
  cli::take(kv, "drain", opt.spec.base.drain_s);
  cli::take(kv, "jobs", opt.jobs);
  if (!cli::take_switch(kv, "paired", opt.spec.paired_seeds) ||
      !cli::take_switch(kv, "progress", opt.progress))
    return false;
  if (!cli::take_shared(kv, opt.spec.base)) return false;
  cli::take(kv, "json", opt.json_path);
  if (!cli::all_consumed(kv)) return false;
  if (opt.spec.seeds == 0) {
    std::cerr << "--seeds must be >= 1\n";
    return false;
  }
  if (!cli::check_workload(opt.spec.stations, opt.spec.region_m,
                           opt.spec.rates_pps, opt.spec.base))
    return false;
  return cli::finish_shared(
      opt.spec.base,
      *std::max_element(opt.spec.stations.begin(), opt.spec.stations.end()));
}

int run(const Options& opt) {
  const auto total = opt.spec.trial_count();
  std::function<void(std::size_t, std::size_t)> progress;
  if (opt.progress) {
    progress = [](std::size_t done, std::size_t n) {
      // \r progress tick; worker threads interleave at worst harmlessly.
      std::cerr << "\rdrn_sweep: " << done << "/" << n << " trials" << std::flush;
    };
  }
  const auto result = runner::run_sweep(opt.spec, opt.jobs, progress);
  if (opt.progress) std::cerr << '\n';

  if (opt.json_path.empty() || opt.json_path == "-") {
    runner::write_results_json(std::cout, opt.spec, result);
  } else {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "cannot write " << opt.json_path << '\n';
      return 3;
    }
    runner::write_results_json(out, opt.spec, result);
    std::cerr << "results (" << total << " trials) written to "
              << opt.json_path << '\n';
  }
  runner::write_timing_json(std::cerr, result);

  if (opt.spec.base.audit) {
    std::uint64_t violations = 0;
    for (const auto& r : result.results) violations += r.audit_violations;
    if (violations > 0) {
      std::cerr << "drn_sweep: invariant audit found " << violations
                << " violations across " << total << " trials\n";
      return 4;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return drn::cli::run_cli<Options>(argc, argv, parse, print_help, run);
}
