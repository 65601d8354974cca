// runner::Trial — the one place a trial is wired — and the scenario builder
// beneath it: the spec's radio design point and propagation choice must
// reach setup, observers attached before run() must see the whole trial,
// and run_trial must be exactly Trial + run().
#include "runner/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>

#include "audit/invariant_auditor.hpp"
#include "common/expects.hpp"
#include "geo/vec2.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation.hpp"
#include "sim/trace.hpp"

namespace drn::runner {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.stations = 8;
  spec.region_m = 400.0;
  spec.rate_pps = 50.0;
  spec.duration_s = 0.3;
  spec.drain_s = 5.0;
  spec.net.max_power_w = 1.0e-3;  // keep the small disc connected
  return spec;
}

TEST(Trial, NetworkPacketSizeFollowsSpecDataRate) {
  // The scheduled network must be built at the spec's design point, not a
  // fixed one: packet airtime is a fraction of a slot, so packet_bits is
  // data_rate x airtime and doubles with the rate.
  ScenarioSpec spec = small_spec();
  const auto base = make_scenario(spec, 5);
  EXPECT_DOUBLE_EQ(base.net.packet_bits,
                   spec.data_rate_bps * base.net.packet_airtime_s);
  spec.data_rate_bps = 2.0 * spec.data_rate_bps;
  const auto fast = make_scenario(spec, 5);
  EXPECT_DOUBLE_EQ(fast.net.packet_airtime_s, base.net.packet_airtime_s);
  EXPECT_DOUBLE_EQ(fast.net.packet_bits, 2.0 * base.net.packet_bits);
}

TEST(Trial, PropagationModelFollowsSpec) {
  ScenarioSpec spec;
  const geo::Vec2 a{0.0, 0.0};
  const geo::Vec2 far{500.0, 0.0};
  const double free_space =
      propagation_model(spec, 1)->power_gain(a, far).value();
  EXPECT_DOUBLE_EQ(free_space,
                   radio::FreeSpacePropagation().power_gain(a, far).value());
  spec.dual_slope_breakpoint_m = 100.0;
  const double two_ray =
      propagation_model(spec, 1)->power_gain(a, far).value();
  EXPECT_LT(two_ray, free_space);  // 1/r^4 beyond the breakpoint
  spec.dual_slope_breakpoint_m = 0.0;
  spec.shadowing_db = 6.0;
  // Shadowing is keyed by the trial seed: two seeds shadow a pair apart.
  EXPECT_NE(propagation_model(spec, 1)->power_gain(a, far).value(),
            propagation_model(spec, 2)->power_gain(a, far).value());
}

TEST(Trial, RunTrialIsTrialRun) {
  ScenarioSpec spec = small_spec();
  spec.mac = MacKind::kAloha;
  const TrialResult a = run_trial(spec, 42);
  Trial trial(spec, 42);
  EXPECT_TRUE(a == trial.run());
  EXPECT_GT(a.type3_losses, 0u);  // ALOHA contends even on a small disc
  EXPECT_TRUE(trial.connected());
  EXPECT_GT(trial.tables().stats().trees, 0u);
  EXPECT_EQ(trial.auditor(), nullptr);
  EXPECT_THROW((void)trial.run(), ContractViolation);  // MACs are consumed
}

TEST(Trial, ObserverAttachedBeforeRunSeesTheWholeTrial) {
  ScenarioSpec spec = small_spec();
  spec.audit = true;
  Trial trial(spec, 7);
  sim::TraceRecorder trace;
  trial.simulator().add_observer(&trace);
  const TrialResult r = trial.run();
  ASSERT_NE(trial.auditor(), nullptr);
  EXPECT_TRUE(trial.auditor()->ok());
  EXPECT_GT(r.audit_checks, 0u);
  EXPECT_EQ(r.audit_violations, 0u);
  // Every unicast hop attempt keyed up a transmitter the trace saw.
  EXPECT_GT(r.hop_attempts, 0u);
  EXPECT_GE(trace.transmissions().size(), r.hop_attempts);
}

TEST(Trial, NearFarDefaultCutoffIsTwiceThePowerBudgetReach) {
  // The near/far default cutoff is decided once, in Trial: a trial without
  // one runs exactly like a trial given 2/√min_gain. At the spec defaults
  // that is 800 m inside a 1000 m disc, so far-field pairs exist and any
  // other default (2 × region = 2000 m would make every pair near) shows
  // in their receptions' min-SINR.
  ScenarioSpec spec;
  spec.engine = radio::InterferenceEngineKind::kNearFar;
  struct Run {
    TrialResult result;
    std::deque<sim::RxEvent> receptions;
  };
  const auto traced = [](const ScenarioSpec& s) {
    sim::TraceRecorder trace;
    Trial trial(s, 3);
    trial.simulator().add_observer(&trace);
    const TrialResult result = trial.run();
    return Run{result, trace.receptions()};
  };
  const Run by_default = traced(spec);
  spec.engine_cutoff_m = 2.0 / std::sqrt(spec.net.power().min_gain());
  EXPECT_DOUBLE_EQ(spec.engine_cutoff_m, 800.0);
  const Run explicit_cutoff = traced(spec);

  EXPECT_TRUE(by_default.result == explicit_cutoff.result);
  EXPECT_GT(by_default.result.hop_attempts, 0u);
  ASSERT_EQ(by_default.receptions.size(), explicit_cutoff.receptions.size());
  for (std::size_t i = 0; i < by_default.receptions.size(); ++i) {
    const sim::RxEvent& a = by_default.receptions[i];
    const sim::RxEvent& b = explicit_cutoff.receptions[i];
    EXPECT_EQ(a.tx_id, b.tx_id);
    EXPECT_EQ(a.rx, b.rx);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.loss, b.loss);
    EXPECT_EQ(a.min_sinr, b.min_sinr) << "reception " << i;
    EXPECT_EQ(a.required_snr, b.required_snr);
    EXPECT_EQ(a.signal_w, b.signal_w);
  }
}

/// The maintenance-beacon settings station 0 of (spec, seed 1) runs with.
core::ScheduledStationConfig station_config(const ScenarioSpec& spec) {
  return make_scenario(spec, 1).net.macs[0]->config();
}

TEST(Trial, SchemeUnderChurnGetsMaintenanceBeacons) {
  // Churned stations must beacon to evict ghosts and re-adopt returnees:
  // 0.5 s beacons, a timeout of 12 intervals, re-adoption on.
  ScenarioSpec spec = small_spec();
  spec.dynamics.churn_rate_per_s = 1.0;
  const auto sc = station_config(spec);
  EXPECT_EQ(sc.beacon_interval_s, 0.5);
  EXPECT_EQ(sc.neighbor_timeout_s, 6.0);
  EXPECT_TRUE(sc.readopt_neighbors);
}

TEST(Trial, SchemeUnderDriftBeaconsWithoutTimeouts) {
  // Drifting clocks need re-fitting beacons; nobody leaves, so no timeout.
  ScenarioSpec spec = small_spec();
  spec.dynamics.drift_ppm_per_s = 2.0;
  const auto sc = station_config(spec);
  EXPECT_EQ(sc.beacon_interval_s, 0.5);
  EXPECT_EQ(sc.neighbor_timeout_s, 0.0);
  EXPECT_FALSE(sc.readopt_neighbors);
}

TEST(Trial, ExplicitMaintenanceSettingsStay) {
  ScenarioSpec spec = small_spec();
  spec.dynamics.churn_rate_per_s = 1.0;
  spec.net.beacon_interval_s = 1.0;
  spec.net.neighbor_timeout_s = 3.0;
  spec.net.readopt_neighbors = true;
  const auto sc = station_config(spec);
  EXPECT_EQ(sc.beacon_interval_s, 1.0);
  EXPECT_EQ(sc.neighbor_timeout_s, 3.0);
  EXPECT_TRUE(sc.readopt_neighbors);
  // An explicit interval alone: the timeout is 12 of that interval.
  spec.net.neighbor_timeout_s = 0.0;
  spec.net.readopt_neighbors = false;
  const auto derived = station_config(spec);
  EXPECT_EQ(derived.beacon_interval_s, 1.0);
  EXPECT_EQ(derived.neighbor_timeout_s, 12.0);
  EXPECT_TRUE(derived.readopt_neighbors);
}

TEST(Trial, RefusesStationCountsAboveTheDenseGuard) {
  ScenarioSpec spec = small_spec();
  spec.stations = radio::kDenseMatrixGuardM + 1;
  EXPECT_THROW((void)make_scenario(spec, 1), ContractViolation);
}

}  // namespace
}  // namespace drn::runner
