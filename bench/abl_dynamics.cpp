// Ablation: MAC robustness under network dynamics — delivery ratio and
// re-convergence time vs churn rate.
//
// For each churn rate, runs the paper's scheduled scheme against contention
// baselines (aloha, csma) on paired seeds: every MAC sees the same
// placements, traffic and dynamics timeline, so the columns are directly
// comparable. Churned stations rejoin after an exponential downtime; the
// scheme warm-reboots with stale clock models and must re-fit them from
// beacons, while the baselines reboot stateless. Re-convergence is the
// DynamicsEngine's recovery clock: seconds from a rejoin to the first
// delivered unicast hop involving the returnee.
//
// Trials fan out across worker threads via runner::run_sweep, whose contract
// is byte-identical results for any job count — the emitted JSON contains
// no timing and no job count, so `--jobs 1` and `--jobs 8` outputs diff
// clean.
//
// Emits BENCH_dynamics.json (schema drn-bench-dynamics-v1).
//
//   bench_abl_dynamics [--smoke] [--out PATH] [--jobs N]
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "runner/json.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace {

using namespace drn;

struct BenchConfig {
  std::size_t stations = 60;
  double region_m = 1200.0;
  double rate_pps = 150.0;
  double duration_s = 20.0;
  double drain_s = 40.0;
  std::size_t seeds = 5;
  std::uint64_t master_seed = 20260808;
  std::vector<double> churn_rates{0.2, 0.5, 1.0};
  std::vector<runner::MacKind> macs{runner::MacKind::kScheme,
                                    runner::MacKind::kAloha,
                                    runner::MacKind::kCsma};
};

BenchConfig smoke_config() {
  BenchConfig c;
  c.stations = 20;
  c.region_m = 800.0;
  c.rate_pps = 100.0;
  c.duration_s = 3.0;
  c.drain_s = 15.0;
  c.seeds = 2;
  return c;
}

/// The sweep for one churn rate: all MACs × seeds, paired so each MAC sees
/// identical placements, traffic and dynamics timelines.
runner::SweepSpec sweep_for(const BenchConfig& c, double churn_rate) {
  runner::SweepSpec sw;
  sw.stations = {c.stations};
  sw.region_m = {c.region_m};
  sw.macs = c.macs;
  sw.rates_pps = {c.rate_pps};
  sw.seeds = c.seeds;
  sw.master_seed = c.master_seed;
  sw.paired_seeds = true;
  sw.base.duration_s = c.duration_s;
  sw.base.drain_s = c.drain_s;
  sw.base.stations = c.stations;
  sw.base.region_m = c.region_m;
  sw.base.dynamics.churn_rate_per_s = churn_rate;
  sw.base.dynamics.mean_downtime_s = 2.0;
  // The scheme's trials beacon every 0.5 s under churn, keeping clock models
  // and neighbour sets live (runner::make_scenario).
  return sw;
}

int run(bool smoke, const std::string& out_path, unsigned jobs) {
  const BenchConfig cfg = smoke ? smoke_config() : BenchConfig{};

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << '\n';
    return 3;
  }
  runner::json::Writer w(out);
  w.begin_object();
  w.key("schema").value("drn-bench-dynamics-v1");
  w.key("smoke").value(smoke);
  w.key("stations").value(static_cast<std::uint64_t>(cfg.stations));
  w.key("region_m").value(cfg.region_m);
  w.key("rate_pps").value(cfg.rate_pps);
  w.key("duration_s").value(cfg.duration_s);
  w.key("drain_s").value(cfg.drain_s);
  w.key("seeds").value(static_cast<std::uint64_t>(cfg.seeds));
  w.key("mean_downtime_s").value(2.0);
  w.key("churn_rates_per_s").begin_array();
  for (double r : cfg.churn_rates) w.value(r);
  w.end_array();
  w.key("macs").begin_array();
  for (runner::MacKind mac : cfg.macs) w.value(runner::mac_name(mac));
  w.end_array();
  w.key("points").begin_array();

  for (double churn_rate : cfg.churn_rates) {
    const runner::SweepSpec sw = sweep_for(cfg, churn_rate);
    const runner::SweepResult result = runner::run_sweep(sw, jobs);
    // One point per MAC: aggregate the seed replicates.
    for (runner::MacKind mac : cfg.macs) {
      runner::SummaryStats delivery, recovery;
      std::uint64_t leaves = 0, joins = 0, aborted = 0, recoveries = 0;
      for (std::size_t i = 0; i < result.trials.size(); ++i) {
        if (result.trials[i].point.mac != mac) continue;
        const runner::TrialResult& r = result.results[i];
        delivery.add(r.delivery_ratio);
        if (r.recoveries > 0) recovery.add(r.median_recovery_s);
        leaves += r.station_leaves;
        joins += r.station_joins;
        aborted += r.aborted_losses;
        recoveries += r.recoveries;
      }
      w.begin_object();
      w.key("churn_rate_per_s").value(churn_rate);
      w.key("mac").value(runner::mac_name(mac));
      w.key("trials").value(delivery.count());
      w.key("delivery_ratio_mean").value(delivery.mean());
      w.key("delivery_ratio_ci95").value(delivery.ci95_half_width());
      w.key("station_leaves").value(leaves);
      w.key("station_joins").value(joins);
      w.key("aborted_losses").value(aborted);
      w.key("recoveries").value(recoveries);
      // Median re-convergence: mean over replicates of each trial's median.
      w.key("median_recovery_s")
          .value(recovery.count() > 0 ? recovery.mean() : 0.0);
      w.end_object();
      std::cerr << "churn=" << churn_rate << "/s " << runner::mac_name(mac)
                << ": delivery " << delivery.mean() << ", recoveries "
                << recoveries << ", median recovery "
                << (recovery.count() > 0 ? recovery.mean() : 0.0) << " s\n";
    }
  }

  w.end_array();
  w.end_object();
  out << '\n';
  std::cerr << "wrote " << out_path << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_dynamics.json";
  unsigned jobs = 0;  // 0 = hardware concurrency
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::cerr << "usage: bench_abl_dynamics [--smoke] [--out PATH] "
                   "[--jobs N]\n";
      return 2;
    }
  }
  try {
    return run(smoke, out_path, jobs);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
