// Ground-truth verification of the Section 7 invariants, via the simulator's
// observer hook: EVERY transmission the scheduled MAC makes must lie inside
// the sender's own transmit windows and inside the addressee's committed
// receive windows — checked against the TRUE station clocks, not the models
// the senders used.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/aloha.hpp"
#include "helpers/scenario.hpp"
#include "runner/scenario.hpp"
#include "sim/observer.hpp"
#include "sim/traffic.hpp"

namespace drn::testing {
namespace {

class WindowAuditor final : public sim::SimObserver {
 public:
  WindowAuditor(const core::Schedule& schedule,
                const std::vector<core::StationClock>& clocks)
      : schedule_(&schedule), clocks_(&clocks) {}

  void on_transmit_start(const sim::TxEvent& tx) override {
    ++transmissions_;
    // Sender side: the radiating interval must lie inside transmit slots of
    // the sender's own schedule (its published commitment to listen must be
    // honoured exactly).
    const auto& sender_clock = (*clocks_)[tx.from];
    if (!schedule_->interval_is(
            sender_clock.local(core::Seconds{tx.start_s}).value(),
            sender_clock.local(core::Seconds{tx.end_s}).value(), false)) {
      ++sender_violations_;
    }
    // Receiver side: the addressee must be committed to listen throughout.
    if (tx.to != kBroadcast) {
      const auto& rx_clock = (*clocks_)[tx.to];
      if (!schedule_->interval_is(
              rx_clock.local(core::Seconds{tx.start_s}).value(),
              rx_clock.local(core::Seconds{tx.end_s}).value(), true)) {
        ++receiver_violations_;
      }
    }
  }

  [[nodiscard]] std::size_t transmissions() const { return transmissions_; }
  [[nodiscard]] std::size_t sender_violations() const {
    return sender_violations_;
  }
  [[nodiscard]] std::size_t receiver_violations() const {
    return receiver_violations_;
  }

 private:
  const core::Schedule* schedule_;
  const std::vector<core::StationClock>* clocks_;
  std::size_t transmissions_ = 0;
  std::size_t sender_violations_ = 0;
  std::size_t receiver_violations_ = 0;
};

class ScheduleCompliance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleCompliance, EveryTransmissionHonoursBothSchedules) {
  core::ScheduledNetworkConfig cfg;
  cfg.target_received_w = 1.0e-9;
  cfg.max_power_w = 1.6e-4;
  cfg.exact_clock_models = false;  // fitted models + guards must still comply
  cfg.max_drift_ppm = 20.0;
  cfg.rendezvous_noise_s = 1.0e-6;
  auto scenario = runner::make_scenario(30, 900.0, GetParam(), cfg);

  WindowAuditor auditor(scenario.net.schedule, scenario.net.clocks);
  sim::SimulatorConfig sc{runner::scheme_criterion()};
  sim::Simulator sim(scenario.gains, sc);
  ScopedAudit audited(sim);
  sim.add_observer(&auditor);
  (void)runner::run_scheme(scenario, sim, 120.0, 2.0, GetParam());

  EXPECT_GT(auditor.transmissions(), 200u);
  EXPECT_EQ(auditor.sender_violations(), 0u) << "seed " << GetParam();
  EXPECT_EQ(auditor.receiver_violations(), 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleCompliance,
                         ::testing::Values(3u, 5u, 8u));

TEST(ScheduleCompliance, BaselinesDoViolateSchedules) {
  // Control: ALOHA transmits whenever it pleases, so against the same
  // schedules it racks up violations — the auditor is not vacuous.
  auto scenario =
      runner::make_scenario(30, 900.0, 13, runner::multihop_config());

  WindowAuditor auditor(scenario.net.schedule, scenario.net.clocks);
  sim::SimulatorConfig sc{runner::scheme_criterion()};
  sim::Simulator sim(scenario.gains, sc);
  ScopedAudit audited(sim);
  sim.add_observer(&auditor);
  baselines::ContentionConfig cc;
  cc.power_w = 1.0e-4;
  for (StationId s = 0; s < scenario.gains.size(); ++s)
    sim.set_mac(s, std::make_unique<baselines::PureAloha>(cc));
  sim.set_router(scenario.tables.router());
  Rng rng(13);
  for (const auto& inj : sim::poisson_traffic(
           120.0, 2.0, scenario.net.packet_bits,
           sim::uniform_pairs(scenario.gains.size()), rng))
    sim.inject(inj.time_s, inj.packet);
  sim.run_until(30.0);
  EXPECT_GT(auditor.sender_violations() + auditor.receiver_violations(), 0u);
}

}  // namespace
}  // namespace drn::testing
