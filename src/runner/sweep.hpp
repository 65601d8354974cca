// Declarative experiment sweeps: the cross-product of parameter axes ×
// seed replicates, fanned across drn::parallel_for, aggregated per parameter
// point, and serialisable as JSON.
//
// Determinism contract: trial i's RNG is Rng(master_seed).split(i) — a pure
// function of (master_seed, i), independent of which worker runs the trial
// and in what order trials complete. Results land in a preallocated slot
// indexed by i. Therefore run_sweep(spec, 1) and run_sweep(spec, 8) produce
// identical results vectors, and write_results_json output is byte-identical
// for any job count. Wall-clock timing is deliberately NOT part of the
// results document — it goes in a separate timing record.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <vector>

#include "runner/scenario.hpp"
#include "runner/summary.hpp"

namespace drn::runner {

/// The axes of a sweep. Every combination of (stations, region_m, mac,
/// rate_pps) is one parameter point; each point runs `seeds` replicates.
struct SweepSpec {
  std::vector<std::size_t> stations{40};
  std::vector<double> region_m{1000.0};
  std::vector<MacKind> macs{MacKind::kScheme};
  std::vector<double> rates_pps{200.0};
  /// Seed replicates per parameter point.
  std::size_t seeds = 1;
  std::uint64_t master_seed = 1;
  /// When true, replicate r of EVERY parameter point draws the same seed
  /// (trial seed = f(master_seed, r) instead of f(master_seed, trial
  /// index)): common random numbers, so MACs are compared on identical
  /// placements/traffic — the classic paired variance-reduction technique
  /// and how the paper's Section 8 table is meant to be read.
  bool paired_seeds = false;
  /// Base spec for fields not swept (traffic window and drain, net config,
  /// radio design point, ...).
  ScenarioSpec base;

  [[nodiscard]] std::size_t trial_count() const {
    return stations.size() * region_m.size() * macs.size() *
           rates_pps.size() * seeds;
  }
};

/// One point of the sweep's parameter grid.
struct ParamPoint {
  std::size_t stations = 0;
  double region_m = 0.0;
  MacKind mac = MacKind::kScheme;
  double rate_pps = 0.0;

  friend bool operator==(const ParamPoint&, const ParamPoint&) = default;
};

/// One unit of work: a parameter point plus a seed replicate.
struct SweepTrial {
  std::size_t index = 0;      // position in the expanded sweep
  ParamPoint point;
  std::size_t replicate = 0;  // 0 .. seeds-1
  std::uint64_t seed = 0;     // derived from (master_seed, index)
};

/// The deterministic trial seed: first output of Rng(master_seed).split(i).
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t master_seed,
                                       std::uint64_t trial_index);

/// Expands the spec into its trial list: axes vary slowest-to-fastest in the
/// order stations, region, mac, rate, replicate; index is the row number.
[[nodiscard]] std::vector<SweepTrial> expand(const SweepSpec& spec);

/// Builds the full ScenarioSpec for one trial.
[[nodiscard]] ScenarioSpec trial_scenario(const SweepSpec& spec,
                                          const SweepTrial& trial);

/// Per-point aggregation of the replicate results.
struct PointSummary {
  ParamPoint point;
  SummaryStats delivery_ratio;
  SummaryStats mean_delay_s;
  SummaryStats mean_hops;
  SummaryStats tx_per_hop;
  SummaryStats mean_duty;
  SummaryStats offered;
  SummaryStats collision_losses;  // type1 + type2 + type3 per trial
  /// Dynamics aggregates (empty stats when the sweep has no dynamics).
  SummaryStats median_recovery_s;  // over trials that measured a recovery
  SummaryStats aborted_losses;
};

struct SweepResult {
  std::vector<SweepTrial> trials;
  /// results[i] belongs to trials[i].
  std::vector<TrialResult> results;
  /// Measured execution facts — NOT written into the results document.
  double wall_s = 0.0;
  unsigned jobs = 1;

  [[nodiscard]] double trials_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(trials.size()) / wall_s : 0.0;
  }
};

/// Runs every trial of the sweep across `jobs` worker threads. `progress`
/// (optional) is called after each trial completes with (done, total); it
/// may run on any worker thread.
[[nodiscard]] SweepResult run_sweep(
    const SweepSpec& spec, unsigned jobs,
    const std::function<void(std::size_t, std::size_t)>& progress = {});

/// Aggregates the per-trial results by parameter point (grid order).
[[nodiscard]] std::vector<PointSummary> summarize(const SweepSpec& spec,
                                                  const SweepResult& result);

/// Writes the deterministic results document (schema "drn-sweep-v3"):
/// spec (including the dynamics block), per-trial results (dynamics
/// counters included only when dynamics is enabled), per-point summaries.
/// Byte-identical for any thread count.
void write_results_json(std::ostream& os, const SweepSpec& spec,
                        const SweepResult& result);

/// Writes the one-line timing record: {"jobs":..,"trials":..,"wall_s":..,
/// "trials_per_s":..}. Varies run to run — keep it out of results files you
/// intend to diff.
void write_timing_json(std::ostream& os, const SweepResult& result);

}  // namespace drn::runner
