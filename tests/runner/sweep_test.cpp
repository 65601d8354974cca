#include "runner/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>

namespace drn::runner {
namespace {

/// A sweep small enough for a unit test but wide enough to exercise every
/// axis: 2 station counts x 2 MACs x 2 replicates = 8 trials.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.stations = {6, 9};
  spec.region_m = {400.0};
  spec.macs = {MacKind::kScheme, MacKind::kAloha};
  spec.rates_pps = {50.0};
  spec.seeds = 2;
  spec.master_seed = 11;
  spec.base.duration_s = 0.3;
  spec.base.drain_s = 5.0;
  spec.base.net.max_power_w = 1.0e-3;  // keep the tiny discs connected
  return spec;
}

TEST(Sweep, ExpandOrderAndSeeds) {
  const auto spec = tiny_spec();
  const auto trials = expand(spec);
  ASSERT_EQ(trials.size(), spec.trial_count());
  ASSERT_EQ(trials.size(), 8u);
  // Grid order: stations slowest, then mac, then replicate.
  EXPECT_EQ(trials[0].point.stations, 6u);
  EXPECT_EQ(trials[0].point.mac, MacKind::kScheme);
  EXPECT_EQ(trials[0].replicate, 0u);
  EXPECT_EQ(trials[1].replicate, 1u);
  EXPECT_EQ(trials[2].point.mac, MacKind::kAloha);
  EXPECT_EQ(trials[4].point.stations, 9u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].index, i);
    EXPECT_EQ(trials[i].seed, trial_seed(spec.master_seed, i));
  }
}

TEST(Sweep, TrialSeedIsPureAndDecorrelated) {
  EXPECT_EQ(trial_seed(7, 0), trial_seed(7, 0));
  EXPECT_NE(trial_seed(7, 0), trial_seed(7, 1));
  EXPECT_NE(trial_seed(7, 0), trial_seed(8, 0));
}

TEST(Sweep, ResultsIdenticalAcrossJobCounts) {
  const auto spec = tiny_spec();
  const auto serial = run_sweep(spec, 1);
  const auto parallel = run_sweep(spec, 8);
  ASSERT_EQ(serial.results.size(), parallel.results.size());

  // The deterministic results documents must be byte-identical.
  std::ostringstream a, b;
  write_results_json(a, spec, serial);
  write_results_json(b, spec, parallel);
  EXPECT_EQ(a.str(), b.str());

  // And so must the raw scalars, not just their rendering.
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].offered, parallel.results[i].offered) << i;
    EXPECT_EQ(serial.results[i].delivered, parallel.results[i].delivered) << i;
    EXPECT_EQ(serial.results[i].hop_attempts,
              parallel.results[i].hop_attempts)
        << i;
    EXPECT_EQ(serial.results[i].mean_delay_s, parallel.results[i].mean_delay_s)
        << i;
    EXPECT_EQ(serial.results[i].mean_duty, parallel.results[i].mean_duty) << i;
  }
}

TEST(Sweep, ProgressReachesTotal) {
  auto spec = tiny_spec();
  spec.stations = {6};
  spec.macs = {MacKind::kScheme};
  // The callback runs on worker threads: record atomically, assert after
  // (gtest EXPECT macros are not thread-safe).
  std::atomic<std::size_t> max_done{0};
  std::atomic<bool> overshoot{false};
  const auto result =
      run_sweep(spec, 2, [&](std::size_t done, std::size_t total) {
        if (done > total) overshoot = true;
        std::size_t prev = max_done.load();
        while (prev < done && !max_done.compare_exchange_weak(prev, done)) {
        }
      });
  EXPECT_FALSE(overshoot.load());
  EXPECT_EQ(max_done.load(), result.trials.size());
  EXPECT_EQ(result.jobs, 2u);
  EXPECT_GT(result.wall_s, 0.0);
}

TEST(Sweep, SummariesGroupReplicates) {
  const auto spec = tiny_spec();
  const auto result = run_sweep(spec, 4);
  const auto points = summarize(spec, result);
  ASSERT_EQ(points.size(), 4u);  // 2 stations x 2 macs
  for (const auto& p : points) {
    EXPECT_EQ(p.delivery_ratio.count(), spec.seeds);
    EXPECT_EQ(p.offered.count(), spec.seeds);
    EXPECT_GE(p.delivery_ratio.mean(), 0.0);
    EXPECT_LE(p.delivery_ratio.mean(), 1.0);
  }
  // Grid order preserved: first point is (6, scheme), last is (9, aloha).
  EXPECT_EQ(points.front().point.stations, 6u);
  EXPECT_EQ(points.front().point.mac, MacKind::kScheme);
  EXPECT_EQ(points.back().point.stations, 9u);
  EXPECT_EQ(points.back().point.mac, MacKind::kAloha);
}

TEST(Sweep, ResultsJsonShapeAndTimingSeparation) {
  auto spec = tiny_spec();
  spec.stations = {6};
  spec.macs = {MacKind::kScheme};
  spec.seeds = 1;
  const auto result = run_sweep(spec, 1);

  std::ostringstream os;
  write_results_json(os, spec, result);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"schema\": \"drn-sweep-v3\""), std::string::npos);
  EXPECT_NE(doc.find("\"trials\""), std::string::npos);
  EXPECT_NE(doc.find("\"summaries\""), std::string::npos);
  // The dynamics config block is always present; the per-trial dynamics
  // counters only appear when dynamics is actually enabled.
  EXPECT_NE(doc.find("\"dynamics\""), std::string::npos);
  EXPECT_NE(doc.find("\"enabled\": false"), std::string::npos);
  EXPECT_EQ(doc.find("\"station_leaves\""), std::string::npos);
  EXPECT_EQ(doc.find("\"median_recovery_s\""), std::string::npos);
  // Timing must NOT leak into the deterministic document.
  EXPECT_EQ(doc.find("wall_s"), std::string::npos);
  EXPECT_EQ(doc.find("trials_per_s"), std::string::npos);

  std::ostringstream ts;
  write_timing_json(ts, result);
  EXPECT_NE(ts.str().find("\"wall_s\""), std::string::npos);
  EXPECT_NE(ts.str().find("\"trials_per_s\""), std::string::npos);
}

TEST(Sweep, SingleSeedSummariesSerializeUndefinedStatsAsNull) {
  // With one replicate per point, stddev/ci95 do not exist (NaN). The
  // results document must stay valid JSON: those fields render as null,
  // never as a bare "nan" token.
  auto spec = tiny_spec();
  spec.stations = {6};
  spec.macs = {MacKind::kScheme};
  spec.seeds = 1;
  const auto result = run_sweep(spec, 1);

  std::ostringstream os;
  write_results_json(os, spec, result);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"stddev\": null"), std::string::npos);
  EXPECT_NE(doc.find("\"ci95\": null"), std::string::npos);
  EXPECT_EQ(doc.find("nan"), std::string::npos);
  EXPECT_EQ(doc.find("inf"), std::string::npos);
  // Round-trip sanity: n survives, and the defined stats are still numbers.
  EXPECT_NE(doc.find("\"n\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"mean\": "), std::string::npos);
}

TEST(Sweep, RunTrialDeterministicForSameSeed) {
  ScenarioSpec spec;
  spec.stations = 6;
  spec.region_m = 400.0;
  spec.rate_pps = 50.0;
  spec.duration_s = 0.3;
  spec.drain_s = 5.0;
  spec.net.max_power_w = 1.0e-3;
  const auto a = run_trial(spec, 42);
  const auto b = run_trial(spec, 42);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.mean_delay_s, b.mean_delay_s);
  const auto c = run_trial(spec, 43);
  // A different seed gives a different placement; offered counts will almost
  // surely differ (Poisson draw) — at minimum the pair can't all match.
  EXPECT_TRUE(c.offered != a.offered || c.mean_delay_s != a.mean_delay_s ||
              c.delivered != a.delivered);
}

TEST(Sweep, PairedSeedsShareSeedAcrossPoints) {
  auto spec = tiny_spec();
  spec.paired_seeds = true;
  const auto trials = expand(spec);
  ASSERT_EQ(trials.size(), 8u);
  for (const auto& t : trials)
    EXPECT_EQ(t.seed, trial_seed(spec.master_seed, t.replicate));

  // Common random numbers: the two MACs at the same (stations, replicate)
  // see the identical placement and traffic, so they are offered the same
  // packet set.
  const auto result = run_sweep(spec, 2);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    for (std::size_t j = i + 1; j < trials.size(); ++j) {
      if (trials[i].point.stations == trials[j].point.stations &&
          trials[i].replicate == trials[j].replicate) {
        EXPECT_EQ(result.results[i].offered, result.results[j].offered);
      }
    }
  }
}

TEST(Sweep, DynamicsConfigRoundTripsIntoJson) {
  auto spec = tiny_spec();
  spec.stations = {6};
  spec.macs = {MacKind::kAloha};
  spec.seeds = 1;
  spec.base.dynamics.churn_rate_per_s = 0.25;
  spec.base.dynamics.mean_downtime_s = 1.5;
  spec.base.dynamics.mobility_speed_mps = 2.0;
  spec.base.dynamics.jammer.count = 1;
  spec.base.dynamics.jammer.duty = 0.1;
  const auto result = run_sweep(spec, 1);

  std::ostringstream os;
  write_results_json(os, spec, result);
  const std::string doc = os.str();
  // The spec's dynamics block round-trips with its configured values...
  EXPECT_NE(doc.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(doc.find("\"churn_rate_per_s\": 0.25"), std::string::npos);
  EXPECT_NE(doc.find("\"mean_downtime_s\": 1.5"), std::string::npos);
  EXPECT_NE(doc.find("\"mobility_model\": \"random_waypoint\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"jammers\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"jammer_duty\": 0.1"), std::string::npos);
  // ...and the per-trial dynamics counters + per-point recovery stats appear.
  EXPECT_NE(doc.find("\"station_leaves\""), std::string::npos);
  EXPECT_NE(doc.find("\"noise_bursts\""), std::string::npos);
  EXPECT_NE(doc.find("\"median_recovery_s\""), std::string::npos);
  EXPECT_NE(doc.find("\"aborted_losses\""), std::string::npos);
}

TEST(Sweep, DynamicsTrialDeterministicAndParallelSafe) {
  // A dynamics-laden trial is still a pure function of (spec, seed), and a
  // sweep of such trials is still byte-identical across job counts.
  auto spec = tiny_spec();
  spec.stations = {6};
  spec.base.dynamics.churn_rate_per_s = 1.0;
  spec.base.dynamics.mean_downtime_s = 0.5;
  spec.base.dynamics.mobility_speed_mps = 1.0;
  spec.base.dynamics.mobility_step_s = 0.2;
  spec.base.dynamics.jammer.count = 1;
  spec.base.net.beacon_interval_s = 0.2;
  spec.base.net.neighbor_timeout_s = 2.4;
  spec.base.net.readopt_neighbors = true;

  const auto serial = run_sweep(spec, 1);
  const auto parallel = run_sweep(spec, 8);
  std::ostringstream a, b;
  write_results_json(a, spec, serial);
  write_results_json(b, spec, parallel);
  EXPECT_EQ(a.str(), b.str());

  // Churn actually happened somewhere in the sweep.
  std::uint64_t leaves = 0;
  for (const auto& r : serial.results) leaves += r.station_leaves;
  EXPECT_GT(leaves, 0u);
}

TEST(Sweep, MacNamesRoundTrip) {
  for (MacKind mac :
       {MacKind::kScheme, MacKind::kAloha, MacKind::kSlottedAloha,
        MacKind::kCsma, MacKind::kMaca}) {
    const auto parsed = parse_mac(mac_name(mac));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mac);
  }
  EXPECT_FALSE(parse_mac("tdma").has_value());
}

}  // namespace
}  // namespace drn::runner
