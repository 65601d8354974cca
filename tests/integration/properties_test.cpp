// Parameterised property sweeps across seeds and parameters: statistical
// properties of schedules, the geometric access-delay model of Section 7.2,
// and interference-bookkeeping consistency against brute force.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "analysis/schedule_math.hpp"
#include "baselines/aloha.hpp"
#include "core/access.hpp"
#include "core/schedule.hpp"
#include "helpers/scenario.hpp"
#include "helpers/test_macs.hpp"
#include "runner/scenario.hpp"
#include "sim/traffic.hpp"

namespace drn::testing {
namespace {

// ---------------------------------------------------------------------------
// Schedule statistics across (seed, p).

class ScheduleProperties
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ScheduleProperties, EmpiricalFractionMatchesP) {
  const auto [seed, p] = GetParam();
  const core::Schedule s(seed, 0.01, p);
  EXPECT_NEAR(s.empirical_receive_fraction(-50000, 100000), p, 0.012);
}

TEST_P(ScheduleProperties, TwoStationsOverlapAtRateP1MinusP) {
  // For two independent-phase stations, the fraction of slot pairs where A
  // may transmit and B listens converges to p(1-p) — the Bernoulli success
  // probability of Section 7.2.
  const auto [seed, p] = GetParam();
  const core::Schedule s(seed, 1.0, p);
  const core::StationClock a(units::Seconds{0.0});
  const core::StationClock b(units::Seconds{12345.678});
  int usable = 0;
  const int slots = 40000;
  for (int k = 0; k < slots; ++k) {
    const double t = a.global(units::Seconds{s.slot_begin(k)}).value();  // my slot k start, global
    const bool i_may_transmit = !s.is_receive_slot(k);
    // Sample B's schedule at the midpoint of my slot.
    const bool b_listens =
        s.is_receive_slot(s.slot_index(b.local(units::Seconds{t + 0.5}).value()));
    if (i_may_transmit && b_listens) ++usable;
  }
  EXPECT_NEAR(static_cast<double>(usable) / slots,
              analysis::access_probability(p), 0.015);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndFractions, ScheduleProperties,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(0.2, 0.3, 0.5)));

// ---------------------------------------------------------------------------
// Access wait distribution is approximately geometric (Section 7.2).

class AccessWait : public ::testing::TestWithParam<double> {};

TEST_P(AccessWait, MeanWaitTracksOneOverPq) {
  const double p = GetParam();
  const core::Schedule s(777, 1.0, p);
  Rng rng(99);
  double total_wait_slots = 0.0;
  const int trials = 600;
  for (int i = 0; i < trials; ++i) {
    const core::ClockModel other(rng.uniform(1.0, 5000.0), 1.0);
    std::vector<core::WindowConstraint> cs = {
        {&s, core::ClockModel(), false, units::Seconds{0.0}},
        {&s, other, true, units::Seconds{0.0}},
    };
    core::AccessRequest req;
    req.earliest_local = units::Seconds{rng.uniform(0.0, 5000.0)};
    req.duration = units::Seconds{0.25};
    req.horizon = units::Seconds{20000.0};
    const auto start = find_transmission_start(req, cs);
    ASSERT_TRUE(start.has_value());
    total_wait_slots += (*start - req.earliest_local).value();
  }
  const double measured = total_wait_slots / trials;
  const double model = analysis::expected_wait(p).value();
  // The slot-phase details shift the constant, but the 1/(p(1-p)) scaling
  // must show through: within a factor of ~1.8 of the Bernoulli model.
  EXPECT_GT(measured, model * 0.4) << p;
  EXPECT_LT(measured, model * 1.8) << p;
}

INSTANTIATE_TEST_SUITE_P(Fractions, AccessWait,
                         ::testing::Values(0.2, 0.3, 0.4, 0.5));

// ---------------------------------------------------------------------------
// SINR bookkeeping: the simulator's incremental interference sums agree with
// a brute-force reconstruction for overlapping transmissions.

TEST(SinrBookkeeping, MarginMatchesBruteForceForStaggeredOverlaps) {
  // Receiver 3 hears sender 0 (signal) plus staggered interferers 1, 2.
  radio::PropagationMatrix m(4);
  m.set_gain(3, 0, radio::LinearGain{1.0});
  m.set_gain(3, 1, radio::LinearGain{0.05});
  m.set_gain(3, 2, radio::LinearGain{0.03});
  m.set_gain(0, 1, radio::LinearGain{1e-9});
  m.set_gain(0, 2, radio::LinearGain{1e-9});
  m.set_gain(1, 2, radio::LinearGain{1.0});

  const double thermal = 0.01;
  sim::SimulatorConfig sc{radio::ReceptionCriterion(radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0})};
  sc.thermal_noise_w = thermal;
  sim::Simulator sim(m, sc);
  ScopedAudit audited(sim);
  sim.set_mac(0, std::make_unique<ScriptMac>(
                     std::vector<ScriptedTx>{{0.000, 3, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<ScriptMac>(
                     std::vector<ScriptedTx>{{0.002, 2, 1.0, 1.0e4}}));
  sim.set_mac(2, std::make_unique<ScriptMac>(
                     std::vector<ScriptedTx>{{0.004, 1, 1.0, 1.0e4}}));
  sim.set_mac(3, std::make_unique<IdleMac>());
  sim.run_until(1.0);

  // Worst interference at receiver 3 over packet 0->3's airtime: both
  // interferers active -> N = thermal + 0.05 + 0.03; required SINR = 1.
  const double min_sinr = 1.0 / (thermal + 0.05 + 0.03);
  ASSERT_GE(sim.metrics().hop_successes(), 1u);
  // The first success recorded is packet 0->3 (ends first).
  EXPECT_NEAR(sim.metrics().sinr_margin_db().min(),
              10.0 * std::log10(min_sinr), 1e-6);
}

// ---------------------------------------------------------------------------
// Conservation: every hop attempt is accounted for as exactly one success or
// one classified loss, under any MAC and load.

class Conservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Conservation, AttemptsEqualSuccessesPlusLosses) {
  runner::Trial trial({.stations = 25,
                       .region_m = 800.0,
                       .rate_pps = 200.0,
                       .duration_s = 1.5,
                       .drain_s = 60.0,
                       .audit = true},
                      GetParam());
  expect_clean_audit(trial, trial.run());
  const auto& m = trial.simulator().metrics();
  EXPECT_EQ(m.hop_attempts(), m.hop_successes() + m.total_hop_losses());
  EXPECT_EQ(m.delivered() + m.mac_drops(), m.offered());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Conservation,
                         ::testing::Values(41u, 42u, 43u));

TEST(Conservation, HoldsForContendingBaselinesToo) {
  // Heavy ALOHA contention: attempts = successes + losses must still hold
  // exactly (the taxonomy is exhaustive, per Section 5: "This enumeration
  // covers all possible cases of an interfering transmission").
  radio::PropagationMatrix m(5);
  for (StationId a = 0; a < 5; ++a)
    for (StationId b = static_cast<StationId>(a + 1); b < 5; ++b)
      m.set_gain(a, b, radio::LinearGain{1.0});
  sim::SimulatorConfig sc{radio::ReceptionCriterion(radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0})};
  sc.thermal_noise_w = 1.0e-15;
  sim::Simulator sim(m, sc);
  ScopedAudit audited(sim);
  baselines::ContentionConfig cc;
  cc.max_retries = 3;
  cc.backoff_mean_s = 0.003;
  for (StationId s = 0; s < 5; ++s)
    sim.set_mac(s, std::make_unique<baselines::PureAloha>(cc));
  Rng rng(77);
  for (const auto& inj :
       sim::poisson_traffic(500.0, 2.0, 1.0e4, sim::uniform_pairs(5), rng))
    sim.inject(inj.time_s, inj.packet);
  sim.run_until(60.0);
  const auto& mm = sim.metrics();
  EXPECT_GT(mm.total_hop_losses(), 0u);
  EXPECT_EQ(mm.hop_attempts(), mm.hop_successes() + mm.total_hop_losses());
}

// ---------------------------------------------------------------------------
// Whole-network determinism: identical seeds -> identical outcome summary.

TEST(Determinism, FullScenarioIsBitReproducible) {
  auto run = [] {
    runner::Trial trial({.stations = 20,
                         .region_m = 700.0,
                         .rate_pps = 80.0,
                         .duration_s = 1.0,
                         .drain_s = 30.0,
                         .audit = true},
                        31);
    expect_clean_audit(trial, trial.run());
    const auto& m = trial.simulator().metrics();
    return std::tuple{m.offered(), m.delivered(), m.hop_attempts(),
                      m.delivered() > 0 ? m.delay().mean() : 0.0};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace drn::testing
