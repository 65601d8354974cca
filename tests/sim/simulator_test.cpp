#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/aloha.hpp"
#include "common/expects.hpp"
#include "helpers/test_macs.hpp"
#include "radio/units.hpp"
#include "sim/trace.hpp"
#include "sim/traffic.hpp"

namespace drn::sim {
namespace {

using drn::testing::IdleMac;
using drn::testing::ScriptMac;
using drn::testing::ScriptedTx;

// A criterion with required SINR exactly 1.0 (0 dB): C/W = 1, margin 0 dB.
radio::ReceptionCriterion zero_db_criterion() {
  return radio::ReceptionCriterion(radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0});
}

// A spread-spectrum criterion tolerating -17 dB SINR (C/W = 0.005, 20 dB
// processing gain is implicit in the rate, 5 dB margin).
radio::ReceptionCriterion spread_criterion() {
  return radio::ReceptionCriterion(radio::Hertz{200.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{5.0});
}

SimulatorConfig config_with(radio::ReceptionCriterion crit,
                            double thermal_w = 1.0e-15) {
  SimulatorConfig cfg{crit};
  cfg.thermal_noise_w = thermal_w;
  return cfg;
}

// Three stations on a line; gains set explicitly per test.
radio::PropagationMatrix matrix3() { return radio::PropagationMatrix(3); }

TEST(Simulator, CleanTransmissionDelivered) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{0.5});
  Simulator sim(m, config_with(zero_db_criterion()));
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().hop_attempts(), 1u);
  EXPECT_EQ(sim.metrics().hop_successes(), 1u);
  EXPECT_EQ(sim.metrics().delivered(), 1u);
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
  // Airtime: 1e4 bits at 1e6 b/s = 10 ms.
  EXPECT_DOUBLE_EQ(sim.metrics().airtime_s(0), 0.01);
}

TEST(Simulator, TooWeakSignalIsType1Loss) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0e-3});
  // Thermal floor high enough that SNR = 1e-3/1e-2 < 1.
  auto cfg = config_with(zero_db_criterion(), /*thermal_w=*/1.0e-2);
  Simulator sim(m, cfg);
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().hop_successes(), 0u);
  EXPECT_EQ(sim.metrics().losses(LossType::kType1), 1u);
}

TEST(Simulator, ThirdPartyInterferenceMidPacketIsType1) {
  // Station 2 (sending to 3) blasts receiver 1 halfway through 0->1's packet.
  radio::PropagationMatrix m(4);
  m.set_gain(0, 1, radio::LinearGain{1.0});    // desired link
  m.set_gain(1, 2, radio::LinearGain{10.0});   // interferer very strong at receiver 1
  m.set_gain(2, 3, radio::LinearGain{1.0});    // interferer's own link
  Simulator sim(m, config_with(zero_db_criterion()));
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 1.0, 1.0e4}}));  // 10 ms packet
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.set_mac(2, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.005, 3, 1.0, 1.0e3}}));  // addressed elsewhere
  sim.set_mac(3, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().losses(LossType::kType1), 1u);
  EXPECT_EQ(sim.metrics().hop_successes(), 1u);  // the interferer's own packet
}

TEST(Simulator, SimultaneousSendersHighThresholdBothLostAsType2) {
  // Two equal-power senders to one receiver, required SINR 0 dB: each sees
  // SINR ~ 1 (not > 1), so both fail; classification is Type 2.
  auto m = matrix3();
  m.set_gain(2, 0, radio::LinearGain{1.0});
  m.set_gain(2, 1, radio::LinearGain{1.0});
  m.set_gain(0, 1, radio::LinearGain{1e-9});
  Simulator sim(m, config_with(zero_db_criterion()));
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 2, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.001, 2, 1.0, 1.0e4}}));
  sim.set_mac(2, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().hop_successes(), 0u);
  EXPECT_EQ(sim.metrics().losses(LossType::kType2), 2u);
}

TEST(Simulator, SpreadSpectrumReceivesConcurrentSenders) {
  // Section 5: with spread spectrum (low required SINR) and parallel
  // despreading channels, simultaneous senders to one station all succeed.
  auto m = matrix3();
  m.set_gain(2, 0, radio::LinearGain{1.0});
  m.set_gain(2, 1, radio::LinearGain{1.0});
  m.set_gain(0, 1, radio::LinearGain{1e-9});
  Simulator sim(m, config_with(spread_criterion()));
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 2, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.001, 2, 1.0, 1.0e4}}));
  sim.set_mac(2, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().hop_successes(), 2u);
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
}

TEST(Simulator, DespreadingChannelExhaustionIsType2) {
  auto m = matrix3();
  m.set_gain(2, 0, radio::LinearGain{1.0});
  m.set_gain(2, 1, radio::LinearGain{1.0});
  m.set_gain(0, 1, radio::LinearGain{1e-9});
  auto cfg = config_with(spread_criterion());
  cfg.despreading_channels = 1;
  Simulator sim(m, cfg);
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 2, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.001, 2, 1.0, 1.0e4}}));
  sim.set_mac(2, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().hop_successes(), 1u);
  EXPECT_EQ(sim.metrics().losses(LossType::kType2), 1u);
}

TEST(Simulator, ReceiverTransmittingMidPacketIsType3) {
  auto m = matrix3();
  m.set_gain(1, 0, radio::LinearGain{1.0});
  m.set_gain(1, 2, radio::LinearGain{1.0});
  m.set_gain(0, 2, radio::LinearGain{1e-9});
  Simulator sim(m, config_with(spread_criterion()));
  // 0 sends to 1 (10 ms); 1 starts its own transmission to 2 at 5 ms.
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.005, 2, 1.0, 1.0e3}}));
  sim.set_mac(2, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().losses(LossType::kType3), 1u);
  EXPECT_EQ(sim.metrics().hop_successes(), 1u);  // 1 -> 2 succeeds
}

TEST(Simulator, ReceiverAlreadyTransmittingIsType3) {
  auto m = matrix3();
  m.set_gain(1, 0, radio::LinearGain{1.0});
  m.set_gain(1, 2, radio::LinearGain{1.0});
  m.set_gain(0, 2, radio::LinearGain{1e-9});
  Simulator sim(m, config_with(spread_criterion()));
  // 1 transmits 0-10 ms; 0's packet to 1 arrives at 2 ms.
  sim.set_mac(1, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 2, 1.0, 1.0e4}}));
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.002, 1, 1.0, 1.0e3}}));
  sim.set_mac(2, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().losses(LossType::kType3), 1u);
}

TEST(Simulator, BackToBackTransmissionsDoNotSelfCollide) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  Simulator sim(m, config_with(zero_db_criterion()));
  // Two 10 ms packets, the second starting exactly when the first ends.
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 1.0, 1.0e4}, {0.01, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().hop_successes(), 2u);
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
}

TEST(Simulator, OverlappingOwnTransmissionsViolateContract) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  Simulator sim(m, config_with(zero_db_criterion()));
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 1.0, 1.0e4}, {0.005, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  EXPECT_THROW(sim.run_until(1.0), ContractViolation);
}

TEST(Simulator, ForwardingFollowsRouter) {
  // Chain 0 -> 1 -> 2 using ALOHA senders (no contention here).
  auto m = matrix3();
  m.set_gain(0, 1, radio::LinearGain{1.0});
  m.set_gain(1, 2, radio::LinearGain{1.0});
  m.set_gain(0, 2, radio::LinearGain{1e-12});  // no direct path
  Simulator sim(m, config_with(spread_criterion()));
  baselines::ContentionConfig cc;
  for (StationId s = 0; s < 3; ++s)
    sim.set_mac(s, std::make_unique<baselines::PureAloha>(cc));
  sim.set_router([](StationId at, StationId dst) -> StationId {
    if (at == 0 && dst == 2) return 1;
    return dst;
  });
  Packet p;
  p.source = 0;
  p.destination = 2;
  p.size_bits = 1.0e4;
  sim.inject(0.0, p);
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().offered(), 1u);
  EXPECT_EQ(sim.metrics().delivered(), 1u);
  EXPECT_DOUBLE_EQ(sim.metrics().hops().mean(), 2.0);
  // Delay: two 10 ms hops back to back.
  EXPECT_NEAR(sim.metrics().delay().mean(), 0.02, 1e-9);
}

TEST(Simulator, NoRouteDropsPacket) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  Simulator sim(m, config_with(zero_db_criterion()));
  sim.set_mac(0, std::make_unique<IdleMac>());
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.set_router([](StationId, StationId) { return kNoStation; });
  Packet p;
  p.source = 0;
  p.destination = 1;
  p.size_bits = 100.0;
  sim.inject(0.0, p);
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().mac_drops(), 1u);
  EXPECT_EQ(sim.metrics().delivered(), 0u);
}

TEST(Simulator, InjectContracts) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  Simulator sim(m, config_with(zero_db_criterion()));
  Packet p;
  p.source = 0;
  p.destination = 0;  // self-addressed
  p.size_bits = 100.0;
  EXPECT_THROW(sim.inject(0.0, p), ContractViolation);
  p.destination = 5;  // out of range
  EXPECT_THROW(sim.inject(0.0, p), ContractViolation);
  p.destination = 1;
  p.size_bits = 0.0;
  EXPECT_THROW(sim.inject(0.0, p), ContractViolation);
}

TEST(Simulator, RunRequiresAllMacs) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  Simulator sim(m, config_with(zero_db_criterion()));
  sim.set_mac(0, std::make_unique<IdleMac>());
  EXPECT_THROW(sim.run_until(1.0), ContractViolation);
}

TEST(Simulator, SinrMarginMatchesHandComputation) {
  // Single clean link: margin_db = 10 log10((S/N)/required).
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{0.5});
  auto cfg = config_with(zero_db_criterion(), /*thermal_w=*/0.05);
  Simulator sim(m, cfg);
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  ASSERT_EQ(sim.metrics().hop_successes(), 1u);
  // S = 0.5, N = 0.05, required = 1.0 -> margin = 10 dB.
  EXPECT_NEAR(sim.metrics().sinr_margin_db().mean(), 10.0, 1e-9);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto m = matrix3();
    m.set_gain(0, 1, radio::LinearGain{1.0});
    m.set_gain(1, 2, radio::LinearGain{1.0});
    m.set_gain(0, 2, radio::LinearGain{0.1});
    Simulator sim(m, config_with(spread_criterion()));
    baselines::ContentionConfig cc;
    for (StationId s = 0; s < 3; ++s)
      sim.set_mac(s, std::make_unique<baselines::PureAloha>(cc));
    Rng rng(17);
    for (const auto& inj :
         poisson_traffic(200.0, 2.0, 1.0e4, uniform_pairs(3), rng))
      sim.inject(inj.time_s, inj.packet);
    sim.run_until(5.0);
    return std::tuple{sim.metrics().hop_attempts(),
                      sim.metrics().hop_successes(),
                      sim.metrics().delivered()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, RunUntilIsResumable) {
  // Split a run into many short run_until windows: the outcome must be
  // identical to one long run (events straddle window boundaries).
  auto run_split = [](bool split) {
    radio::PropagationMatrix m(2);
    m.set_gain(0, 1, radio::LinearGain{1.0});
    Simulator sim(m, config_with(zero_db_criterion()));
    sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                       {0.003, 1, 1.0, 1.0e4},
                       {0.021, 1, 1.0, 1.0e4},
                       {0.047, 1, 1.0, 1.0e4}}));
    sim.set_mac(1, std::make_unique<IdleMac>());
    if (split) {
      for (double t = 0.001; t <= 0.1; t += 0.001) sim.run_until(t);
    } else {
      sim.run_until(0.1);
    }
    return std::tuple{sim.metrics().hop_successes(),
                      sim.metrics().delivered(),
                      sim.metrics().airtime_s(0)};
  };
  EXPECT_EQ(run_split(true), run_split(false));
}

TEST(Simulator, InjectAfterPartialRunWorks) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  Simulator sim(m, config_with(zero_db_criterion()));
  sim.set_mac(0, std::make_unique<baselines::PureAloha>(
                     baselines::ContentionConfig{}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  Packet p;
  p.source = 0;
  p.destination = 1;
  p.size_bits = 1.0e4;
  sim.inject(0.0, p);
  sim.run_until(0.5);
  EXPECT_EQ(sim.metrics().delivered(), 1u);
  sim.inject(0.6, p);  // injection into an already-running simulation
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().delivered(), 2u);
  // Injecting into the past is rejected.
  EXPECT_THROW(sim.inject(0.2, p), ContractViolation);
}

TEST(Simulator, InjectedPacketIdsNeverCollideWithGeneratedOnes) {
  // NetworkLayer::admit: a caller-supplied nonzero Packet::id used to leave
  // next_packet_id_ untouched, so a later zero-id injection could be handed
  // the same id and corrupt exactly-once accounting. The generator must
  // advance past every injected id.
  class IdRecorder final : public SimObserver {
   public:
    std::vector<PacketId> ids;
    void on_transmit_start(const TxEvent& tx) override {
      ids.push_back(tx.packet);
    }
  };
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  Simulator sim(m, config_with(zero_db_criterion()));
  IdRecorder rec;
  sim.add_observer(&rec);
  sim.set_mac(0, std::make_unique<baselines::PureAloha>(
                     baselines::ContentionConfig{}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  Packet p;
  p.source = 0;
  p.destination = 1;
  p.size_bits = 1.0e4;
  p.id = 5;  // caller-chosen id ahead of the generator (which starts at 1)
  sim.inject(0.0, p);
  p.id = 0;  // six generated ids; the fifth used to collide with 5
  for (int i = 1; i <= 6; ++i) sim.inject(0.05 * i, p);
  sim.run_until(2.0);
  ASSERT_EQ(rec.ids.size(), 7u);
  std::set<PacketId> unique(rec.ids.begin(), rec.ids.end());
  EXPECT_EQ(unique.size(), 7u) << "duplicate packet id on the air";
  EXPECT_EQ(sim.metrics().offered(), 7u);
  EXPECT_EQ(sim.metrics().delivered(), 7u);
}

TEST(Simulator, StagedInjectionsAdmitTheirOwnPacket) {
  // Injected packets wait in the network layer, named by the index their
  // inject event carries. Injecting out of time order makes the staging
  // order differ from the admission order, so an index mix-up shows as a
  // wrong or repeated id on the air.
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  Simulator sim(m, config_with(zero_db_criterion()));
  TraceRecorder trace;
  sim.add_observer(&trace);
  sim.set_mac(0, std::make_unique<baselines::PureAloha>(
                     baselines::ContentionConfig{}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  Packet p;
  p.source = 0;
  p.destination = 1;
  p.size_bits = 1.0e4;
  for (const auto& [id, t] :
       {std::pair<PacketId, double>{30, 0.3}, {10, 0.1}, {20, 0.2}}) {
    p.id = id;
    sim.inject(t, p);
  }
  sim.run_until(2.0);
  EXPECT_EQ(sim.metrics().offered(), 3u);
  EXPECT_EQ(sim.metrics().delivered(), 3u);
  std::vector<PacketId> on_air;
  for (const TxEvent& tx : trace.transmissions()) on_air.push_back(tx.packet);
  EXPECT_EQ(on_air, (std::vector<PacketId>{10, 20, 30}));
  ASSERT_EQ(trace.receptions().size(), 3u);
  for (const RxEvent& rx : trace.receptions()) EXPECT_TRUE(rx.delivered);
}

TEST(Simulator, ActiveTransmissionCountTracksAir) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  Simulator sim(m, config_with(zero_db_criterion()));
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(0.005);
  EXPECT_EQ(sim.active_transmissions(), 1u);
  sim.run_until(0.02);
  EXPECT_EQ(sim.active_transmissions(), 0u);
}

}  // namespace
}  // namespace drn::sim
