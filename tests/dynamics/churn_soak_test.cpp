// Churn soak: a fully audited simulation of 60 s of traffic with every fault
// class enabled at once, asserting the physics invariants never crack. It
// takes about a second, so it runs with the rest of the suite.
#include <gtest/gtest.h>

#include "runner/scenario.hpp"

namespace drn::runner {
namespace {

TEST(ChurnSoak, AuditedEverythingOnRunStaysInvariantClean) {
  ScenarioSpec spec;
  spec.stations = 120;
  spec.region_m = 1800.0;
  spec.rate_pps = 150.0;
  spec.duration_s = 60.0;
  spec.drain_s = 30.0;
  spec.audit = true;
  spec.dynamics.churn_rate_per_s = 1.0;
  spec.dynamics.mean_downtime_s = 3.0;
  spec.dynamics.mobility_speed_mps = 1.0;
  spec.dynamics.mobility_step_s = 0.5;
  spec.dynamics.drift_ppm_per_s = 2.0;
  spec.dynamics.jammer.count = 2;

  const TrialResult r = run_trial(spec, 4242);
  EXPECT_GT(r.audit_checks, 100000u);
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_GT(r.station_leaves, 20u);
  EXPECT_GT(r.station_joins, 10u);
  EXPECT_GT(r.noise_bursts, 100u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.recoveries, 0u);
}

}  // namespace
}  // namespace drn::runner
