#include "runner/sweep.hpp"

#include <atomic>
#include <chrono>

#include "common/expects.hpp"
#include "common/parallel.hpp"
#include "runner/json.hpp"

namespace drn::runner {

std::uint64_t trial_seed(std::uint64_t master_seed, std::uint64_t trial_index) {
  Rng master(master_seed);
  return master.split(trial_index)();
}

std::vector<SweepTrial> expand(const SweepSpec& spec) {
  DRN_EXPECTS(spec.seeds > 0);
  std::vector<SweepTrial> trials;
  trials.reserve(spec.trial_count());
  for (std::size_t m : spec.stations)
    for (double region : spec.region_m)
      for (MacKind mac : spec.macs)
        for (double rate : spec.rates_pps)
          for (std::size_t rep = 0; rep < spec.seeds; ++rep) {
            SweepTrial t;
            t.index = trials.size();
            t.point = ParamPoint{m, region, mac, rate};
            t.replicate = rep;
            t.seed = trial_seed(spec.master_seed,
                                spec.paired_seeds ? rep : t.index);
            trials.push_back(t);
          }
  return trials;
}

ScenarioSpec trial_scenario(const SweepSpec& spec,
                            const SweepTrial& trial) {
  ScenarioSpec s = spec.base;
  s.stations = trial.point.stations;
  s.region_m = trial.point.region_m;
  s.mac = trial.point.mac;
  s.rate_pps = trial.point.rate_pps;
  return s;
}

SweepResult run_sweep(
    const SweepSpec& spec, unsigned jobs,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  SweepResult out;
  out.jobs = jobs == 0 ? hardware_jobs() : jobs;
  out.trials = expand(spec);
  out.results.resize(out.trials.size());

  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<std::size_t> done{0};
  parallel_for(out.trials.size(), out.jobs, [&](std::size_t i) {
    const SweepTrial& trial = out.trials[i];
    out.results[i] = run_trial(trial_scenario(spec, trial), trial.seed);
    const std::size_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (progress) progress(d, out.trials.size());
  });
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  return out;
}

std::vector<PointSummary> summarize(const SweepSpec& spec,
                                    const SweepResult& result) {
  std::vector<PointSummary> points;
  for (std::size_t i = 0; i < result.trials.size(); ++i) {
    const SweepTrial& trial = result.trials[i];
    if (trial.replicate == 0) {
      PointSummary p;
      p.point = trial.point;
      points.push_back(std::move(p));
    }
    DRN_EXPECTS(!points.empty() && points.back().point == trial.point);
    const TrialResult& r = result.results[i];
    PointSummary& p = points.back();
    p.delivery_ratio.add(r.delivery_ratio);
    if (r.delivered > 0) {
      p.mean_delay_s.add(r.mean_delay_s);
      p.mean_hops.add(r.mean_hops);
    }
    if (r.hop_successes > 0) p.tx_per_hop.add(r.tx_per_hop);
    p.mean_duty.add(r.mean_duty);
    p.offered.add(static_cast<double>(r.offered));
    p.collision_losses.add(static_cast<double>(
        r.type1_losses + r.type2_losses + r.type3_losses));
    if (r.recoveries > 0) p.median_recovery_s.add(r.median_recovery_s);
    p.aborted_losses.add(static_cast<double>(r.aborted_losses));
  }
  DRN_EXPECTS(points.size() * spec.seeds == result.trials.size());
  return points;
}

namespace {

void write_point(json::Writer& w, const ParamPoint& p) {
  w.key("stations").value(p.stations);
  w.key("region_m").value(p.region_m);
  w.key("mac").value(mac_name(p.mac));
  w.key("rate_pps").value(p.rate_pps);
}

void write_stat(json::Writer& w, const char* name, const SummaryStats& s) {
  w.key(name).begin_object();
  w.key("n").value(s.count());
  w.key("mean").value(s.mean());
  w.key("stddev").value(s.stddev());
  w.key("ci95").value(s.ci95_half_width());
  w.end_object();
}

}  // namespace

void write_results_json(std::ostream& os, const SweepSpec& spec,
                        const SweepResult& result) {
  json::Writer w(os);
  w.begin_object();
  w.key("schema").value("drn-sweep-v3");

  w.key("spec").begin_object();
  w.key("master_seed").value(spec.master_seed);
  w.key("seeds").value(spec.seeds);
  w.key("paired_seeds").value(spec.paired_seeds);
  w.key("audit").value(spec.base.audit);
  w.key("engine").value(radio::engine_name(spec.base.engine));
  w.key("engine_cutoff_m").value(spec.base.engine_cutoff_m);
  w.key("engine_cell_m").value(spec.base.engine_cell_m);
  w.key("duration_s").value(spec.base.duration_s);
  w.key("drain_s").value(spec.base.drain_s);
  w.key("stations").begin_array();
  for (std::size_t m : spec.stations) w.value(m);
  w.end_array();
  w.key("region_m").begin_array();
  for (double r : spec.region_m) w.value(r);
  w.end_array();
  w.key("macs").begin_array();
  for (MacKind mac : spec.macs) w.value(mac_name(mac));
  w.end_array();
  w.key("rates_pps").begin_array();
  for (double r : spec.rates_pps) w.value(r);
  w.end_array();
  const dynamics::DynamicsConfig& dc = spec.base.dynamics;
  w.key("dynamics").begin_object();
  w.key("enabled").value(dc.enabled());
  w.key("churn_rate_per_s").value(dc.churn_rate_per_s);
  w.key("mean_downtime_s").value(dc.mean_downtime_s);
  w.key("mobility_model")
      .value(dc.mobility_enabled() ? "random_waypoint" : "none");
  w.key("mobility_speed_mps").value(dc.mobility_speed_mps);
  w.key("mobility_step_s").value(dc.mobility_step_s);
  w.key("mobility_region_m").value(dc.mobility_region_m);
  w.key("drift_ppm_per_s").value(dc.drift_ppm_per_s);
  w.key("drift_step_s").value(dc.drift_step_s);
  w.key("jammers").value(dc.jammer.count);
  w.key("jammer_period_s").value(dc.jammer.period_s);
  w.key("jammer_duty").value(dc.jammer.duty);
  w.key("jammer_power_w").value(dc.jammer.power_w);
  w.end_object();
  w.end_object();

  w.key("trials").begin_array();
  for (std::size_t i = 0; i < result.trials.size(); ++i) {
    const SweepTrial& t = result.trials[i];
    const TrialResult& r = result.results[i];
    w.begin_object();
    w.key("index").value(t.index);
    write_point(w, t.point);
    w.key("replicate").value(t.replicate);
    w.key("seed").value(t.seed);
    w.key("offered").value(r.offered);
    w.key("delivered").value(r.delivered);
    w.key("delivery_ratio").value(r.delivery_ratio);
    w.key("hop_attempts").value(r.hop_attempts);
    w.key("hop_successes").value(r.hop_successes);
    w.key("type1_losses").value(r.type1_losses);
    w.key("type2_losses").value(r.type2_losses);
    w.key("type3_losses").value(r.type3_losses);
    w.key("mac_drops").value(r.mac_drops);
    w.key("mean_delay_s").value(r.mean_delay_s);
    w.key("mean_hops").value(r.mean_hops);
    w.key("tx_per_hop").value(r.tx_per_hop);
    w.key("mean_duty").value(r.mean_duty);
    if (spec.base.audit) {
      w.key("audit_checks").value(r.audit_checks);
      w.key("audit_violations").value(r.audit_violations);
    }
    if (spec.base.dynamics.enabled()) {
      w.key("aborted_losses").value(r.aborted_losses);
      w.key("station_leaves").value(r.station_leaves);
      w.key("station_joins").value(r.station_joins);
      w.key("churn_drops").value(r.churn_drops);
      w.key("noise_bursts").value(r.noise_bursts);
      w.key("recoveries").value(r.recoveries);
      w.key("mean_recovery_s").value(r.mean_recovery_s);
      w.key("median_recovery_s").value(r.median_recovery_s);
    }
    w.end_object();
  }
  w.end_array();

  w.key("summaries").begin_array();
  for (const PointSummary& p : summarize(spec, result)) {
    w.begin_object();
    write_point(w, p.point);
    write_stat(w, "delivery_ratio", p.delivery_ratio);
    write_stat(w, "mean_delay_s", p.mean_delay_s);
    write_stat(w, "mean_hops", p.mean_hops);
    write_stat(w, "tx_per_hop", p.tx_per_hop);
    write_stat(w, "mean_duty", p.mean_duty);
    write_stat(w, "offered", p.offered);
    write_stat(w, "collision_losses", p.collision_losses);
    if (spec.base.dynamics.enabled()) {
      write_stat(w, "median_recovery_s", p.median_recovery_s);
      write_stat(w, "aborted_losses", p.aborted_losses);
    }
    w.end_object();
  }
  w.end_array();

  w.end_object();
  os << '\n';
}

void write_timing_json(std::ostream& os, const SweepResult& result) {
  json::Writer w(os, 0);
  w.begin_object();
  w.key("jobs").value(result.jobs);
  w.key("trials").value(result.trials.size());
  w.key("wall_s").value(result.wall_s);
  w.key("trials_per_s").value(result.trials_per_s());
  w.end_object();
  os << '\n';
}

}  // namespace drn::runner
