// Exact-vs-approximate interference engine cross-check: the near/far engine
// must reproduce the compensated (exact) engine's physics on tab_sec8-style
// scenarios — per-reception min-SINR within the configured far-field bound,
// and headline metrics (delivery rate, loss-type mix) within 0.5%.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "audit/invariant_auditor.hpp"
#include "radio/interference_engine.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace drn {
namespace {

struct TracedRun {
  runner::TrialResult result;
  sim::TraceRecorder trace;
};

/// A runner::Trial on the product audit path (spec.audit), with a trace of
/// every reception outcome attached through simulator().
TracedRun run_traced(runner::ScenarioSpec spec, std::uint64_t seed) {
  spec.audit = true;
  TracedRun out;
  runner::Trial trial(spec, seed);
  trial.simulator().add_observer(&out.trace);
  out.result = trial.run();
  EXPECT_GT(out.result.audit_checks, 0u);
  EXPECT_TRUE(trial.auditor()->ok()) << trial.auditor()->report();
  return out;
}

/// Per-far-field-term relative gain error of the near/far engine: both
/// endpoints sit at most cell_m * sqrt(2) / 2 from their cell centres and
/// far pairs are at least cutoff_m apart, so a 1/d^2 gain is off by at most
/// this factor (see DESIGN.md "Interference engines").
double far_field_bound(const radio::NearFarConfig& nf) {
  const double cutoff = nf.cutoff.value();
  const double cell = nf.cell.value() > 0.0 ? nf.cell.value() : cutoff / 4.0;
  return std::pow(1.0 + std::sqrt(2.0) * cell / cutoff, 2.0) - 1.0;
}

void expect_headline_metrics_close(const runner::TrialResult& approx,
                                   const runner::TrialResult& exact) {
  EXPECT_EQ(approx.offered, exact.offered);
  EXPECT_NEAR(approx.delivery_ratio, exact.delivery_ratio,
              0.005 * exact.delivery_ratio + 1e-12);
  // Loss-type mix: each class within 0.5% of the exact run's hop attempts.
  const double slack = 0.005 * static_cast<double>(exact.hop_attempts);
  EXPECT_NEAR(static_cast<double>(approx.type1_losses),
              static_cast<double>(exact.type1_losses), slack);
  EXPECT_NEAR(static_cast<double>(approx.type2_losses),
              static_cast<double>(exact.type2_losses), slack);
  EXPECT_NEAR(static_cast<double>(approx.type3_losses),
              static_cast<double>(exact.type3_losses), slack);
}

/// The tab_sec8 100-station point (region 1600 m, Poisson 400 pkt/s,
/// master seed 606) at a shortened offer window.
runner::ScenarioSpec tab_sec8_point(runner::MacKind mac, double drain_s) {
  runner::ScenarioSpec spec;
  spec.stations = 100;
  spec.region_m = 1600.0;
  spec.mac = mac;
  spec.rate_pps = 400.0;
  spec.duration_s = 1.0;
  spec.drain_s = drain_s;
  return spec;
}

/// Runs `spec` exactly (compensated) and under near/far with an 800 m cutoff
/// (2x the 400 m free-space reach). Both audits must pass, and every traced
/// reception and the headline metrics must agree within the far-field
/// bound. Returns the exact run.
TracedRun cross_check(runner::ScenarioSpec spec) {
  const std::uint64_t seed = runner::trial_seed(606, 0);
  spec.engine = radio::InterferenceEngineKind::kCompensated;
  auto exact = run_traced(spec, seed);

  spec.engine = radio::InterferenceEngineKind::kNearFar;
  spec.engine_cutoff_m = 800.0;
  const auto approx = run_traced(spec, seed);

  radio::NearFarConfig nf;
  nf.cutoff = radio::Meters{spec.engine_cutoff_m};
  const auto disagreements =
      audit::cross_check_engine(approx.trace, exact.trace, far_field_bound(nf));
  EXPECT_TRUE(disagreements.empty())
      << disagreements.size() << " disagreements, first: "
      << disagreements.front().detail;
  expect_headline_metrics_close(approx.result, exact.result);
  return exact;
}

TEST(EngineCrossCheck, SchemeOnTabSec8Seed) {
  const auto exact =
      cross_check(tab_sec8_point(runner::MacKind::kScheme, 60.0));
  EXPECT_GT(exact.trace.receptions().size(), 100u);
}

TEST(EngineCrossCheck, AlohaLossMixOnTabSec8Seed) {
  // ALOHA generates real collision losses — the loss-type mix actually
  // exercises interference-driven outcomes, unlike the (collision-free)
  // scheduled scheme.
  const auto exact =
      cross_check(tab_sec8_point(runner::MacKind::kAloha, 30.0));
  EXPECT_GT(exact.result.type1_losses + exact.result.type2_losses +
                exact.result.type3_losses,
            0u)
      << "workload produced no collisions; the cross-check is vacuous";
}

}  // namespace
}  // namespace drn
