// Audit harness shared by the integration tests: every scenario they run
// rides an InvariantAuditor along. Whole trials run on runner::Trial, the
// product path, with spec.audit set; hand-built simulators take a
// ScopedAudit.
#pragma once

#include <gtest/gtest.h>

#include "audit/invariant_auditor.hpp"
#include "runner/scenario.hpp"
#include "sim/simulator.hpp"

namespace drn::testing {

/// Rides an InvariantAuditor along on `sim` for the scope's lifetime and
/// asserts a clean verdict (including the metrics cross-check) on
/// destruction. Declare one right after constructing a Simulator; every
/// integration test runs fully audited this way.
class ScopedAudit {
 public:
  explicit ScopedAudit(sim::Simulator& sim) : auditor_(sim), sim_(&sim) {
    sim.add_observer(&auditor_);
  }
  ScopedAudit(const ScopedAudit&) = delete;
  ScopedAudit& operator=(const ScopedAudit&) = delete;
  ~ScopedAudit() {
    auditor_.finalize(sim_->now());
    auditor_.cross_check(sim_->metrics());
    EXPECT_TRUE(auditor_.ok()) << auditor_.report();
    EXPECT_GT(auditor_.checks_run(), 0u);
  }

  [[nodiscard]] audit::InvariantAuditor& auditor() { return auditor_; }

 private:
  audit::InvariantAuditor auditor_;
  sim::Simulator* sim_;
};

/// Asserts the verdict of a finished spec.audit trial: the auditor ran
/// checks and none of them failed.
inline void expect_clean_audit(const runner::Trial& trial,
                               const runner::TrialResult& result) {
  EXPECT_GT(result.audit_checks, 0u);
  EXPECT_EQ(result.audit_violations, 0u) << trial.auditor()->report();
}

}  // namespace drn::testing
