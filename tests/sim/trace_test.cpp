#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "helpers/test_macs.hpp"
#include "sim/simulator.hpp"

namespace drn::sim {
namespace {

using drn::testing::IdleMac;
using drn::testing::ScriptMac;
using drn::testing::ScriptedTx;

radio::ReceptionCriterion criterion() {
  return radio::ReceptionCriterion(radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0});
}

TEST(Trace, RecordsTransmissionsAndReceptions) {
  radio::PropagationMatrix m(3);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  m.set_gain(1, 2, radio::LinearGain{1.0});
  m.set_gain(0, 2, radio::LinearGain{1e-9});
  SimulatorConfig cfg{criterion()};
  cfg.thermal_noise_w = 1e-15;
  Simulator sim(m, cfg);
  TraceRecorder trace;
  sim.add_observer(&trace);
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.00, 1, 1.0, 1.0e4}, {0.02, 1, 1.0, 1.0e4}}));
  sim.set_mac(2, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.05, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(1.0);

  const auto& txs = trace.transmissions();
  const auto& rxs = trace.receptions();
  ASSERT_EQ(txs.size(), 3u);
  ASSERT_EQ(rxs.size(), 3u);
  const auto from = [&txs](StationId s) {
    return std::count_if(txs.begin(), txs.end(),
                         [s](const TxEvent& tx) { return tx.from == s; });
  };
  EXPECT_EQ(from(0), 2);
  EXPECT_EQ(from(2), 1);
  for (const RxEvent& rx : rxs) {
    EXPECT_EQ(rx.rx, 1u);
    EXPECT_TRUE(rx.delivered);
  }
}

TEST(Trace, CapturesLossOutcome) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0e-6});
  SimulatorConfig cfg{criterion()};
  cfg.thermal_noise_w = 1.0;  // hopeless SNR
  Simulator sim(m, cfg);
  TraceRecorder trace;
  sim.add_observer(&trace);
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  ASSERT_EQ(trace.receptions().size(), 1u);
  EXPECT_FALSE(trace.receptions()[0].delivered);
  EXPECT_EQ(trace.receptions()[0].loss, LossType::kType1);
}

TEST(Trace, CsvOutput) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  SimulatorConfig cfg{criterion()};
  cfg.thermal_noise_w = 1e-15;
  Simulator sim(m, cfg);
  TraceRecorder trace;
  sim.add_observer(&trace);
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 2.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(1.0);

  std::ostringstream tx_csv;
  trace.write_transmissions_csv(tx_csv);
  const std::string tx = tx_csv.str();
  EXPECT_NE(tx.find("tx_id,from,to,power_w"), std::string::npos);
  EXPECT_NE(tx.find("1,0,1,2,"), std::string::npos);

  std::ostringstream rx_csv;
  trace.write_receptions_csv(rx_csv);
  const std::string rx = rx_csv.str();
  EXPECT_NE(rx.find("delivered"), std::string::npos);
  // Two lines: header + one record.
  EXPECT_EQ(std::count(rx.begin(), rx.end(), '\n'), 2);
}

TEST(Trace, EmptyAndClear) {
  TraceRecorder trace;
  EXPECT_TRUE(trace.transmissions().empty());
  EXPECT_TRUE(trace.receptions().empty());
  TxEvent tx;
  tx.from = 3;
  trace.on_transmit_start(tx);
  EXPECT_EQ(trace.transmissions().size(), 1u);
  trace.clear();
  EXPECT_TRUE(trace.transmissions().empty());
  EXPECT_TRUE(trace.receptions().empty());
}

TEST(Trace, MaxEventsCapDropsOldestAndCounts) {
  TraceRecorder trace(3);
  EXPECT_EQ(trace.max_events(), 3u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    TxEvent tx;
    tx.tx_id = i;
    trace.on_transmit_start(tx);
  }
  ASSERT_EQ(trace.transmissions().size(), 3u);
  EXPECT_EQ(trace.dropped_transmissions(), 2u);
  // Oldest two (1, 2) were shed; the newest three remain in order.
  EXPECT_EQ(trace.transmissions()[0].tx_id, 3u);
  EXPECT_EQ(trace.transmissions()[2].tx_id, 5u);

  for (std::uint64_t i = 1; i <= 4; ++i) {
    RxEvent rx;
    rx.tx_id = i;
    rx.delivered = true;
    trace.on_reception_complete(rx);
  }
  ASSERT_EQ(trace.receptions().size(), 3u);
  EXPECT_EQ(trace.dropped_receptions(), 1u);
  // Reception 1 was shed; 2..4 remain in order, outcomes intact.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(trace.receptions()[i].tx_id, i + 2);
    EXPECT_TRUE(trace.receptions()[i].delivered);
  }

  trace.clear();
  EXPECT_EQ(trace.dropped_transmissions(), 0u);
  EXPECT_EQ(trace.dropped_receptions(), 0u);
  EXPECT_TRUE(trace.transmissions().empty());
}

TEST(Trace, UncappedByDefault) {
  TraceRecorder trace;
  EXPECT_EQ(trace.max_events(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    TxEvent tx;
    tx.tx_id = i;
    trace.on_transmit_start(tx);
  }
  EXPECT_EQ(trace.transmissions().size(), 100u);
  EXPECT_EQ(trace.dropped_transmissions(), 0u);
}

TEST(Trace, BroadcastToFieldInCsvIsMinusOne) {
  TraceRecorder trace;
  TxEvent tx;
  tx.tx_id = 9;
  tx.from = 0;
  tx.to = kBroadcast;
  trace.on_transmit_start(tx);
  std::ostringstream os;
  trace.write_transmissions_csv(os);
  EXPECT_NE(os.str().find("9,0,-1,"), std::string::npos);
}

}  // namespace
}  // namespace drn::sim
