// Exact-vs-approximate interference engine cross-check (ISSUE 4 acceptance):
// the near/far engine must reproduce the compensated (exact) engine's
// physics on tab_sec8-style scenarios — per-reception min-SINR within the
// configured far-field bound, and headline metrics (delivery rate, loss-type
// mix) within 0.5%.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "audit/invariant_auditor.hpp"
#include "radio/interference_engine.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "sim/simulator.hpp"

namespace drn {
namespace {

struct AuditedRun {
  runner::TrialResult result;
  std::unique_ptr<audit::InvariantAuditor> auditor;
};

/// A runner::Trial with a recording auditor riding along (the runner's own
/// audit path records no per-reception outcomes, which the engine
/// cross-check needs).
AuditedRun run_audited(const runner::ScenarioSpec& spec, std::uint64_t seed) {
  runner::Trial trial(spec, seed);
  sim::Simulator& sim = trial.simulator();
  audit::AuditConfig recording = audit::config_from(sim);
  recording.record_receptions = true;
  auto auditor = std::make_unique<audit::InvariantAuditor>(recording);
  sim.add_observer(auditor.get());
  AuditedRun out{trial.run(), std::move(auditor)};
  const double total = spec.duration_s + spec.drain_s;
  out.auditor->finalize(total);
  out.auditor->cross_check(sim.metrics());
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
/// (2x the 400 m free-space reach). Both audits must pass, and every
/// recorded reception and the headline metrics must agree within the
/// far-field bound. Returns the exact run.
AuditedRun cross_check(runner::ScenarioSpec spec) {
  const std::uint64_t seed = runner::trial_seed(606, 0);
  spec.engine = radio::InterferenceEngineKind::kCompensated;
  auto exact = run_audited(spec, seed);
  EXPECT_TRUE(exact.auditor->ok()) << exact.auditor->report();

  spec.engine = radio::InterferenceEngineKind::kNearFar;
  spec.engine_cutoff_m = 800.0;
  auto approx = run_audited(spec, seed);
  EXPECT_TRUE(approx.auditor->ok()) << approx.auditor->report();

  radio::NearFarConfig nf;
  nf.cutoff = radio::Meters{spec.engine_cutoff_m};
  approx.auditor->cross_check_engine(*exact.auditor, far_field_bound(nf));
  EXPECT_TRUE(approx.auditor->ok()) << approx.auditor->report();
  expect_headline_metrics_close(approx.result, exact.result);
  return exact;
}

TEST(EngineCrossCheck, SchemeOnTabSec8Seed) {
  const auto exact =
      cross_check(tab_sec8_point(runner::MacKind::kScheme, 60.0));
  EXPECT_GT(exact.auditor->recorded_receptions().size(), 100u);
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
