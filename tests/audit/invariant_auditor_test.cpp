// Unit tests for the invariant auditor: a clean simulator run passes every
// check, and each invariant trips on a hand-crafted event stream that
// breaches exactly it. The synthetic streams model what a buggy simulator
// would emit, which is the failure class the auditor exists to catch.
#include "audit/invariant_auditor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/expects.hpp"
#include "helpers/test_macs.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace drn::audit {
namespace {

using drn::testing::IdleMac;
using drn::testing::ScriptMac;
using drn::testing::ScriptedTx;

AuditConfig config(std::size_t stations = 4, int channels = 2) {
  AuditConfig cfg;
  cfg.stations = stations;
  cfg.despreading_channels = channels;
  cfg.thermal_noise = units::Watts{1.0e-12};
  return cfg;
}

sim::TxEvent tx_event(std::uint64_t id, StationId from, StationId to,
                      double start_s, double end_s) {
  sim::TxEvent tx;
  tx.tx_id = id;
  tx.from = from;
  tx.to = to;
  tx.power_w = 1.0;
  tx.start_s = start_s;
  tx.end_s = end_s;
  tx.rate_bps = 1.0e4;
  return tx;
}

sim::RxEvent rx_event(std::uint64_t id, StationId rx, bool delivered) {
  sim::RxEvent ev;
  ev.tx_id = id;
  ev.rx = rx;
  ev.delivered = delivered;
  ev.loss = delivered ? sim::LossType::kNone : sim::LossType::kType1;
  ev.signal_w = 1.0e-6;
  ev.required_snr = 10.0;
  ev.min_sinr = delivered ? 100.0 : 1.0;
  return ev;
}

bool tripped(const InvariantAuditor& a, const std::string& invariant) {
  return a.counts_by_invariant().count(invariant) > 0;
}

// ---------------------------------------------------------------------------
// A real, correct simulation satisfies every invariant.

TEST(InvariantAuditor, CleanSimulatorRunPasses) {
  radio::PropagationMatrix m(3);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  m.set_gain(1, 2, radio::LinearGain{1.0});
  m.set_gain(0, 2, radio::LinearGain{1e-9});
  sim::SimulatorConfig cfg{radio::ReceptionCriterion(radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0})};
  cfg.thermal_noise_w = 1e-15;
  sim::Simulator sim(m, cfg);
  InvariantAuditor auditor(sim);
  sim.add_observer(&auditor);
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.00, 1, 1.0, 1.0e4}, {0.02, 1, 1.0, 1.0e4}}));
  sim.set_mac(2, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.05, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  auditor.finalize(1.0);
  auditor.cross_check(sim.metrics());
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_GT(auditor.checks_run(), 0u);
  EXPECT_EQ(auditor.violation_count(), 0u);
}

TEST(InvariantAuditor, CleanBroadcastRunPasses) {
  radio::PropagationMatrix m(3);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  m.set_gain(0, 2, radio::LinearGain{1.0});
  m.set_gain(1, 2, radio::LinearGain{1.0});
  sim::SimulatorConfig cfg{radio::ReceptionCriterion(radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0})};
  cfg.thermal_noise_w = 1e-15;
  sim::Simulator sim(m, cfg);
  InvariantAuditor auditor(sim);
  sim.add_observer(&auditor);
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, kBroadcast, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.set_mac(2, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  auditor.finalize(1.0);
  auditor.cross_check(sim.metrics());
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// ---------------------------------------------------------------------------
// Each invariant trips on a stream that breaches exactly it.

TEST(InvariantAuditor, TripsOnNonMonotonicEvents) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 1.0, 1.1));
  a.on_transmit_start(tx_event(2, 2, 1, 0.5, 0.6));  // earlier than tx 1
  EXPECT_FALSE(a.ok());
  EXPECT_TRUE(tripped(a, "event-monotonicity"));
}

TEST(InvariantAuditor, TripsOnMalformedTransmission) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 1.0, 0.9));  // ends before it starts
  EXPECT_TRUE(tripped(a, "tx-wellformed"));
  InvariantAuditor b(config());
  b.on_transmit_start(tx_event(1, 0, 0, 1.0, 1.1));  // transmits to itself
  EXPECT_TRUE(tripped(b, "tx-wellformed"));
}

TEST(InvariantAuditor, TripsOnOverlappingTransmissionsOfOneStation) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 1.0));
  a.on_transmit_start(tx_event(2, 0, 2, 0.5, 1.5));  // same sender, overlaps
  EXPECT_TRUE(tripped(a, "tx-serialization"));
}

TEST(InvariantAuditor, BackToBackTransmissionsAreSerialized) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 1.0));
  a.on_transmit_start(tx_event(2, 0, 2, 1.0, 2.0));  // shared boundary: fine
  EXPECT_TRUE(a.ok()) << a.report();
}

TEST(InvariantAuditor, TripsOnDeliveryWhileReceiverTransmits) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 1.0));
  a.on_transmit_start(tx_event(2, 1, 2, 0.2, 0.4));  // receiver keys up
  a.on_reception_complete(rx_event(2, 2, true));
  EXPECT_TRUE(a.ok()) << a.report();  // so far so good
  a.on_reception_complete(rx_event(1, 1, true));  // Type 3 must have killed it
  EXPECT_TRUE(tripped(a, "half-duplex"));
}

TEST(InvariantAuditor, Type3LossWhileReceiverTransmitsIsConsistent) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 1.0));
  a.on_transmit_start(tx_event(2, 1, 2, 0.2, 0.4));
  a.on_reception_complete(rx_event(2, 2, true));
  sim::RxEvent rx = rx_event(1, 1, false);
  rx.loss = sim::LossType::kType3;
  a.on_reception_complete(rx);
  EXPECT_TRUE(a.ok()) << a.report();
}

TEST(InvariantAuditor, TripsOnDespreadingCapExceeded) {
  InvariantAuditor a(config(/*stations=*/6, /*channels=*/2));
  // Three simultaneous deliveries at station 5 with only two channels.
  a.on_transmit_start(tx_event(1, 0, 5, 0.0, 1.0));
  a.on_transmit_start(tx_event(2, 1, 5, 0.1, 1.1));
  a.on_transmit_start(tx_event(3, 2, 5, 0.2, 1.2));
  a.on_reception_complete(rx_event(1, 5, true));
  a.on_reception_complete(rx_event(2, 5, true));
  a.on_reception_complete(rx_event(3, 5, true));
  EXPECT_TRUE(tripped(a, "despreading-cap"));
}

TEST(InvariantAuditor, CapCountsType1FailuresAsOccupants) {
  InvariantAuditor a(config(/*stations=*/6, /*channels=*/2));
  a.on_transmit_start(tx_event(1, 0, 5, 0.0, 1.0));
  a.on_transmit_start(tx_event(2, 1, 5, 0.1, 1.1));
  a.on_transmit_start(tx_event(3, 2, 5, 0.2, 1.2));
  a.on_reception_complete(rx_event(1, 5, false));  // Type 1: held a channel
  a.on_reception_complete(rx_event(2, 5, true));
  a.on_reception_complete(rx_event(3, 5, true));
  EXPECT_TRUE(tripped(a, "despreading-cap"));
}

TEST(InvariantAuditor, SequentialReceptionsRespectCap) {
  InvariantAuditor a(config(/*stations=*/6, /*channels=*/2));
  a.on_transmit_start(tx_event(1, 0, 5, 0.0, 1.0));
  a.on_transmit_start(tx_event(2, 1, 5, 0.1, 1.1));
  a.on_reception_complete(rx_event(1, 5, true));
  a.on_reception_complete(rx_event(2, 5, true));
  a.on_transmit_start(tx_event(3, 2, 5, 2.0, 3.0));  // after both ended
  a.on_reception_complete(rx_event(3, 5, true));
  EXPECT_TRUE(a.ok()) << a.report();
}

TEST(InvariantAuditor, TripsOnDeliveryBelowThreshold) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 1.0));
  sim::RxEvent rx = rx_event(1, 1, true);
  rx.min_sinr = 5.0;  // below required_snr = 10
  a.on_reception_complete(rx);
  EXPECT_TRUE(tripped(a, "sinr-threshold"));
}

TEST(InvariantAuditor, TripsOnSinrAboveZeroInterferenceBound) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 1.0));
  sim::RxEvent rx = rx_event(1, 1, true);
  // signal/thermal = 1e-6/1e-12 = 1e6; claiming more is impossible.
  rx.min_sinr = 1.0e7;
  a.on_reception_complete(rx);
  EXPECT_TRUE(tripped(a, "sinr-consistency"));
}

TEST(InvariantAuditor, TripsOnThresholdInconsistentWithRate) {
  AuditConfig cfg = config();
  cfg.bandwidth = units::Hertz{1.0e6};
  cfg.margin = units::Decibels{0.0};
  InvariantAuditor a(cfg);
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 1.0));  // rate 1e4 over 1e6
  sim::RxEvent rx = rx_event(1, 1, true);
  rx.required_snr = 123.0;  // nowhere near Eq. 4 at this rate fraction
  rx.min_sinr = 200.0;
  a.on_reception_complete(rx);
  EXPECT_TRUE(tripped(a, "required-snr"));
}

TEST(InvariantAuditor, TripsOnContradictoryOutcome) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 1.0));
  sim::RxEvent rx = rx_event(1, 1, true);
  rx.loss = sim::LossType::kType2;  // delivered AND lost
  a.on_reception_complete(rx);
  EXPECT_TRUE(tripped(a, "outcome-exclusive"));
}

TEST(InvariantAuditor, TripsOnUnknownTransmissionId) {
  InvariantAuditor a(config());
  a.on_reception_complete(rx_event(99, 1, true));
  EXPECT_TRUE(tripped(a, "conservation"));
}

TEST(InvariantAuditor, TripsOnWrongAddressee) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 1.0));
  a.on_reception_complete(rx_event(1, 2, true));  // sent to 1, reported at 2
  EXPECT_TRUE(tripped(a, "conservation"));
}

TEST(InvariantAuditor, TripsOnDuplicateBroadcastOutcome) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, kBroadcast, 0.0, 1.0));
  a.on_reception_complete(rx_event(1, 1, true));
  a.on_reception_complete(rx_event(1, 1, true));  // station 1 reports twice
  EXPECT_TRUE(tripped(a, "conservation"));
}

TEST(InvariantAuditor, TripsOnMissingOutcomeAtFinalize) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 1.0));
  a.finalize(10.0);  // tx 1 ended at 1.0 but never produced an outcome
  EXPECT_TRUE(tripped(a, "conservation"));
}

TEST(InvariantAuditor, InFlightTransmissionAtCutoffIsNotDangling) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 5.0));
  a.finalize(2.0);  // still on the air at the cutoff
  EXPECT_TRUE(a.ok()) << a.report();
}

TEST(InvariantAuditor, TripsOnMetricsMismatch) {
  InvariantAuditor a(config());
  a.on_transmit_start(tx_event(1, 0, 1, 0.0, 1.0));
  a.on_reception_complete(rx_event(1, 1, true));
  sim::Metrics empty(4);  // claims zero hop attempts; the stream shows one
  a.cross_check(empty);
  EXPECT_TRUE(tripped(a, "metrics-crosscheck"));
}

// ---------------------------------------------------------------------------
// Reporting machinery.

TEST(InvariantAuditor, ReportNamesInvariantAndCountsAllViolations) {
  InvariantAuditor a(config());
  for (std::uint64_t i = 0; i < 70; ++i)
    a.on_reception_complete(rx_event(100 + i, 1, true));  // all unknown
  EXPECT_EQ(a.violation_count(), 70u);
  EXPECT_EQ(a.violations().size(), 64u);  // detail capped, count exact
  EXPECT_EQ(a.violations().back().detail,
            "rx of tx 163 at 1 references an unknown or already-completed tx");
  const std::string report = a.report();
  EXPECT_NE(report.find("conservation"), std::string::npos);
  EXPECT_NE(report.find("70 violations"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine cross-check: two reception traces of one scenario, keyed by
// (tx id, receiver).

sim::TraceRecorder trace_of(const std::vector<sim::RxEvent>& rxs,
                            std::size_t cap = 0) {
  sim::TraceRecorder trace(cap);
  for (const sim::RxEvent& rx : rxs) trace.on_reception_complete(rx);
  return trace;
}

TEST(EngineCrossCheck, AgreeingTracesPass) {
  sim::RxEvent near = rx_event(1, 2, true);
  near.min_sinr *= 1.0 + 1e-3;  // inside a 1e-2 bound
  const auto run = trace_of({near, rx_event(2, 3, false)});
  // Same receptions in another order: the key, not the position, pairs them.
  const auto reference =
      trace_of({rx_event(2, 3, false), rx_event(1, 2, true)});
  EXPECT_TRUE(cross_check_engine(run, reference, 1e-2).empty());
}

TEST(EngineCrossCheck, FlagsSinrBeyondBoundAndMissingReceptions) {
  sim::RxEvent far = rx_event(1, 2, true);
  far.min_sinr *= 1.1;
  const auto run = trace_of({far, rx_event(3, 1, true)});
  const auto reference = trace_of({rx_event(1, 2, true), rx_event(2, 3, true)});
  const auto found = cross_check_engine(run, reference, 1e-2);
  ASSERT_EQ(found.size(), 3u);
  for (const Violation& v : found) EXPECT_EQ(v.invariant, "engine-crosscheck");
  EXPECT_NE(found[0].detail.find("tx 1 at 2 min-SINR"), std::string::npos);
  EXPECT_NE(found[1].detail.find("tx 2 at 3 exists only in the reference"),
            std::string::npos);
  EXPECT_NE(found[2].detail.find("tx 3 at 1 exists only in this"),
            std::string::npos);
}

TEST(EngineCrossCheck, FlippedOutcomePassesOnlyWhenBorderline) {
  // Same SINR, opposite calls: legitimate only at the threshold.
  sim::RxEvent lost = rx_event(1, 2, false);
  sim::RxEvent won = rx_event(1, 2, true);
  lost.min_sinr = won.min_sinr = 10.0 * (1.0 + 1e-3);  // threshold is 10
  EXPECT_TRUE(cross_check_engine(trace_of({lost}), trace_of({won}), 1e-2)
                  .empty());
  lost.min_sinr = won.min_sinr = 100.0;
  const auto found =
      cross_check_engine(trace_of({lost}), trace_of({won}), 1e-2);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].detail.find("outcome flipped"), std::string::npos);
}

TEST(EngineCrossCheck, RefusesATraceThatDroppedEvents) {
  const auto full = trace_of({rx_event(1, 2, true), rx_event(2, 3, true)});
  const auto capped =
      trace_of({rx_event(1, 2, true), rx_event(2, 3, true)}, 1);
  ASSERT_EQ(capped.dropped_receptions(), 1u);
  EXPECT_THROW((void)cross_check_engine(capped, full, 1e-2),
               ContractViolation);
  EXPECT_THROW((void)cross_check_engine(full, capped, 1e-2),
               ContractViolation);
  EXPECT_THROW((void)cross_check_engine(full, full, 0.0), ContractViolation);
}

}  // namespace
}  // namespace drn::audit
