// The comparison the paper's Section 2 sets up: prior-work random-access
// MACs under the SAME physical model, topology and workload as the scheduled
// scheme. The qualitative shape to reproduce: the scheme loses nothing to
// collisions while ALOHA/CSMA shed packets (Type 1/2/3) as load grows —
// despite the baselines enjoying free genie acknowledgements.
#include <gtest/gtest.h>

#include <cstdint>

#include "runner/scenario.hpp"

namespace drn::testing {
namespace {

/// 30 stations in a 900 m disc under aggressive load (400 pkt/s). Trials of
/// one seed share placement, routes and offered traffic, whatever the MAC,
/// and the baselines radiate 1e-4 W, comparable to the scheme's power.
runner::ScenarioSpec comparison_spec(runner::MacKind mac) {
  runner::ScenarioSpec spec;
  spec.stations = 30;
  spec.region_m = 900.0;
  spec.mac = mac;
  spec.rate_pps = 400.0;
  spec.duration_s = 2.0;
  spec.net.exact_clock_models = true;
  spec.audit = true;
  return spec;
}

/// run_trial with its invariant auditor required clean.
runner::TrialResult audited(const runner::ScenarioSpec& spec,
                            std::uint64_t seed) {
  const runner::TrialResult r = runner::run_trial(spec, seed);
  EXPECT_GT(r.audit_checks, 0u);
  EXPECT_EQ(r.audit_violations, 0u);
  return r;
}

std::uint64_t collisions(const runner::TrialResult& r) {
  return r.type1_losses + r.type2_losses + r.type3_losses;
}

TEST(BaselineComparison, SchemeBeatsRandomAccessUnderLoad) {
  const std::uint64_t seed = 101;
  const auto scheme = audited(comparison_spec(runner::MacKind::kScheme), seed);
  const auto aloha = audited(comparison_spec(runner::MacKind::kAloha), seed);

  // The scheme: zero collision losses. ALOHA: real collision losses.
  EXPECT_EQ(collisions(scheme), 0u);
  EXPECT_GT(collisions(aloha), 0u);
  EXPECT_GE(scheme.delivery_ratio, aloha.delivery_ratio);
  // The scheme spends exactly one transmission per hop; ALOHA burns extra
  // attempts on retries of collided packets.
  EXPECT_EQ(scheme.hop_attempts, scheme.hop_successes);
  EXPECT_GT(aloha.hop_attempts, scheme.hop_attempts);
}

TEST(BaselineComparison, CsmaSuffersHiddenTerminalsTheSchemeDoesNot) {
  const std::uint64_t seed = 103;
  const auto scheme = audited(comparison_spec(runner::MacKind::kScheme), seed);
  // CSMA senses carrier at 2.5 nW, about the power a 200 m neighbour
  // delivers.
  const auto csma = audited(comparison_spec(runner::MacKind::kCsma), seed);

  EXPECT_EQ(collisions(scheme), 0u);
  EXPECT_GT(collisions(csma), 0u);
  EXPECT_GE(scheme.delivery_ratio, csma.delivery_ratio);
}

TEST(BaselineComparison, SlottedAlohaStillCollides) {
  const auto slotted = audited(comparison_spec(runner::MacKind::kSlottedAloha),
                               105);  // slots of net.slot_s / 4
  EXPECT_GT(collisions(slotted), 0u);
  EXPECT_LT(slotted.delivery_ratio, 1.0);
}

}  // namespace
}  // namespace drn::testing
