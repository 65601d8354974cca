// Command-line plumbing shared by drn_sim and drn_sweep: the "--key value"
// tokenizer, typed readers, and the flags both tools accept — interference
// engine (--engine/--cutoff/--cell), network dynamics (--churn ...
// --jammer-power), maintenance beacons (--beacon) and --audit — with one
// validator for all of them. Every reader removes the flag it consumed, so
// whatever is left over is an unknown option.
//
// Readers return false after printing why on stderr; a malformed number
// throws std::invalid_argument / std::out_of_range from parse_real or
// parse_count, which run_cli reports as a usage error.
#pragma once

#include <concepts>
#include <cstddef>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>

#include "runner/scenario.hpp"

namespace drn::cli {

/// --help lines for the ten dynamics flags and --beacon.
inline constexpr const char* kDynamicsHelp =
    R"(  --churn RATE          station crash rate, crashes/s  (default 0 = off)
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
)";

/// "--key value" pairs, keyed without the leading dashes.
using Flags = std::map<std::string, std::string>;

/// Splits argv into `flags`; sets `help` on --help / -h. False on a token
/// that is not "--key value" or on a flag given twice.
bool tokenize(int argc, char** argv, Flags& flags, bool& help);

/// All of `text` as a number: std::stod alone reads "50abc" as 50, so
/// trailing text throws std::invalid_argument here.
double parse_real(const std::string& text);

/// All of `text` as a count: digits only, so a minus sign (which
/// std::stoull wraps to a huge value) throws std::invalid_argument too.
unsigned long long parse_count(const std::string& text);

/// Moves flag `name`, if given, into `out`.
void take(Flags& flags, const char* name, std::string& out);
void take(Flags& flags, const char* name, double& out);
template <std::unsigned_integral Count>
void take(Flags& flags, const char* name, Count& out) {
  if (auto it = flags.find(name); it != flags.end()) {
    const unsigned long long value = parse_count(it->second);
    if (value > std::numeric_limits<Count>::max()) {
      throw std::out_of_range(it->second);
    }
    out = static_cast<Count>(value);
    flags.erase(it);
  }
}

/// A 0|1 switch: anything else is rejected.
bool take_switch(Flags& flags, const char* name, bool& out);

/// Consumes the shared flags into `spec` (--beacon into
/// spec.net.beacon_interval_s). False on an unknown engine name or a bad
/// --audit value.
bool take_shared(Flags& flags, runner::ScenarioSpec& spec);

/// Refuses a workload no trial can run, naming the flag: a --stations point
/// below 2 (traffic needs a source and another destination), a --region or
/// --rate point, or the spec's --duration, that is not finite and > 0, or a
/// --drain that is not finite and >= 0. drn_sweep passes every axis point;
/// drn_sim its one value of each.
bool check_workload(std::span<const std::size_t> stations,
                    std::span<const double> regions_m,
                    std::span<const double> rates_pps,
                    const runner::ScenarioSpec& spec);

/// Validates the shared values once every flag is read. `max_stations` is
/// the largest station count the command will run; setup builds an M x M
/// gain matrix, so counts above radio::kDenseMatrixGuardM are refused here
/// rather than deep inside a trial.
bool finish_shared(const runner::ScenarioSpec& spec, std::size_t max_stations);

/// False, naming the first leftover flag, unless every flag was consumed.
bool all_consumed(const Flags& flags);

/// A CLI's whole main(): `parse` fills the options (exit 2 on a usage error
/// or a malformed number), --help prints `help`, and `run` does the work
/// (exit 1 with the message on an exception).
template <typename Options>
int run_cli(int argc, char** argv, bool (*parse)(int, char**, Options&),
            void (*help)(), int (*run)(const Options&)) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) return 2;
  } catch (const std::exception&) {
    std::cerr << "bad numeric argument (try --help)\n";
    return 2;
  }
  if (opt.help) {
    help();
    return 0;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace drn::cli
