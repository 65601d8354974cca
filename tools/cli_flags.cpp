#include "cli_flags.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>

#include "radio/interference_engine.hpp"

namespace drn::cli {

bool tokenize(int argc, char** argv, Flags& flags, bool& help) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      help = true;
      return true;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::cerr << "bad argument: " << key << " (try --help)\n";
      return false;
    }
    // A repeated flag is refused: keeping either value silently would run
    // a command other than the one typed.
    if (!flags.emplace(key.substr(2), argv[++i]).second) {
      std::cerr << "repeated option: " << key << " (give each flag once)\n";
      return false;
    }
  }
  return true;
}

double parse_real(const std::string& text) {
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size()) throw std::invalid_argument(text);
  return value;
}

unsigned long long parse_count(const std::string& text) {
  if (text.empty() || text.front() < '0' || text.front() > '9') {
    throw std::invalid_argument(text);
  }
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used);
  if (used != text.size()) throw std::invalid_argument(text);
  return value;
}

void take(Flags& flags, const char* name, std::string& out) {
  if (auto it = flags.find(name); it != flags.end()) {
    out = it->second;
    flags.erase(it);
  }
}

void take(Flags& flags, const char* name, double& out) {
  if (auto it = flags.find(name); it != flags.end()) {
    out = parse_real(it->second);
    flags.erase(it);
  }
}

bool take_switch(Flags& flags, const char* name, bool& out) {
  const auto it = flags.find(name);
  if (it == flags.end()) return true;
  if (it->second != "0" && it->second != "1") {
    std::cerr << "bad --" << name << " value: " << it->second
              << " (want 0 or 1)\n";
    return false;
  }
  out = it->second == "1";
  flags.erase(it);
  return true;
}

bool take_shared(Flags& flags, runner::ScenarioSpec& spec) {
  if (auto it = flags.find("engine"); it != flags.end()) {
    const auto kind = radio::parse_engine(it->second);
    if (!kind) {
      std::cerr << "unknown --engine " << it->second << " (try --help)\n";
      return false;
    }
    spec.engine = *kind;
    flags.erase(it);
  }
  take(flags, "cutoff", spec.engine_cutoff_m);
  take(flags, "cell", spec.engine_cell_m);
  auto& dyn = spec.dynamics;
  // A jammer knob without jammers is a mistake, not a no-op; remember
  // whether one was given before the defaults absorb it.
  const bool jammer_knobs = flags.count("jammer-period") > 0 ||
                            flags.count("jammer-duty") > 0 ||
                            flags.count("jammer-power") > 0;
  take(flags, "churn", dyn.churn_rate_per_s);
  take(flags, "churn-downtime", dyn.mean_downtime_s);
  take(flags, "mobility", dyn.mobility_speed_mps);
  take(flags, "mobility-step", dyn.mobility_step_s);
  take(flags, "drift", dyn.drift_ppm_per_s);
  take(flags, "drift-step", dyn.drift_step_s);
  take(flags, "jammers", dyn.jammer.count);
  take(flags, "jammer-period", dyn.jammer.period_s);
  take(flags, "jammer-duty", dyn.jammer.duty);
  take(flags, "jammer-power", dyn.jammer.power_w);
  if (dyn.jammer.count == 0 && jammer_knobs) {
    std::cerr << "--jammer-* tune the jammers; combine them with "
                 "--jammers N\n";
    return false;
  }
  take(flags, "beacon", spec.net.beacon_interval_s);
  return take_switch(flags, "audit", spec.audit);
}

bool check_workload(std::span<const std::size_t> stations,
                    std::span<const double> regions_m,
                    std::span<const double> rates_pps,
                    const runner::ScenarioSpec& spec) {
  // "nan" and "inf" parse as numbers; neither is a workload.
  const auto finite_positive = [](double v) {
    return std::isfinite(v) && v > 0.0;
  };
  const auto positive = [&](std::span<const double> values) {
    return std::all_of(values.begin(), values.end(), finite_positive);
  };
  if (std::any_of(stations.begin(), stations.end(),
                  [](std::size_t m) { return m < 2; })) {
    std::cerr << "--stations must be >= 2: traffic needs a source and "
                 "another destination\n";
    return false;
  }
  if (!positive(regions_m)) {
    std::cerr << "--region must be finite and > 0\n";
    return false;
  }
  if (!positive(rates_pps)) {
    std::cerr << "--rate must be finite and > 0\n";
    return false;
  }
  if (!finite_positive(spec.duration_s)) {
    std::cerr << "--duration must be finite and > 0\n";
    return false;
  }
  if (!std::isfinite(spec.drain_s) || spec.drain_s < 0.0) {
    std::cerr << "--drain must be finite and >= 0\n";
    return false;
  }
  return true;
}

bool finish_shared(const runner::ScenarioSpec& spec,
                   std::size_t max_stations) {
  const auto& dyn = spec.dynamics;
  const bool nearfar = spec.engine == radio::InterferenceEngineKind::kNearFar;
  if ((spec.engine_cutoff_m > 0.0 || spec.engine_cell_m > 0.0) && !nearfar) {
    std::cerr << "--cutoff/--cell tune the near/far engine; "
                 "combine them with --engine nearfar\n";
    return false;
  }
  if (dyn.churn_rate_per_s < 0.0 || dyn.mobility_speed_mps < 0.0 ||
      dyn.drift_ppm_per_s < 0.0) {
    std::cerr << "--churn/--mobility/--drift rates must be >= 0\n";
    return false;
  }
  if (dyn.churn_enabled() && dyn.mean_downtime_s <= 0.0) {
    std::cerr << "--churn-downtime must be > 0 when --churn is on\n";
    return false;
  }
  if (dyn.mobility_enabled() && dyn.mobility_step_s <= 0.0) {
    std::cerr << "--mobility-step must be > 0 when --mobility is on\n";
    return false;
  }
  if (dyn.drift_enabled() && dyn.drift_step_s <= 0.0) {
    std::cerr << "--drift-step must be > 0 when --drift is on\n";
    return false;
  }
  if (dyn.jammer.count > 0 &&
      (dyn.jammer.period_s <= 0.0 || dyn.jammer.duty <= 0.0 ||
       dyn.jammer.duty > 1.0 || dyn.jammer.power_w <= 0.0)) {
    std::cerr << "--jammer-period/--jammer-power must be > 0 and "
                 "--jammer-duty in (0, 1]\n";
    return false;
  }
  if (spec.net.beacon_interval_s < 0.0) {
    std::cerr << "--beacon must be >= 0\n";
    return false;
  }
  // Jammers join the simulator's matrix too, unless the near/far engine
  // serves the gains lazily.
  const std::size_t matrix_m =
      max_stations + (nearfar ? 0 : dyn.jammer.count);
  if (matrix_m > radio::kDenseMatrixGuardM) {
    std::cerr << matrix_m << " stations"
              << (matrix_m > max_stations ? " (jammers included)" : "")
              << " exceed the " << radio::kDenseMatrixGuardM
              << "-station limit: trial setup builds an M x M gain "
                 "matrix (M(M+1)/2 stored doubles). The sparse setup "
                 "pipeline (ROADMAP.md, "
                 "\"Matrix-free setup\") is the way past it.\n";
    return false;
  }
  return true;
}

bool all_consumed(const Flags& flags) {
  if (flags.empty()) return true;
  std::cerr << "unknown option: --" << flags.begin()->first
            << " (try --help)\n";
  return false;
}

}  // namespace drn::cli
