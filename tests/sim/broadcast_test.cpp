// Tests for the simulator extensions: broadcast transmissions, the observer
// hook, per-transmission rates, and multiuser-detection subtraction.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/expects.hpp"
#include "helpers/scenario.hpp"
#include "helpers/test_macs.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace drn::sim {
namespace {

using drn::testing::IdleMac;
using drn::testing::ScriptMac;
using drn::testing::ScriptedTx;

radio::ReceptionCriterion spread_criterion() {
  return radio::ReceptionCriterion(radio::Hertz{200.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{5.0});
}

SimulatorConfig config_with(radio::ReceptionCriterion crit,
                            double thermal_w = 1.0e-15) {
  SimulatorConfig cfg{crit};
  cfg.thermal_noise_w = thermal_w;
  return cfg;
}

/// Broadcasts one beacon at t=0 and records everything it overhears.
class BeaconMac final : public MacProtocol {
 public:
  struct Heard {
    StationId from;
    double signal_w;
    double at_s;
    double stamp_s;
  };

  explicit BeaconMac(bool send, double power = 1.0) : send_(send), power_(power) {}

  void on_start(MacContext& ctx) override {
    if (send_) ctx.set_timer(0.0, 0);
  }
  void on_timer(MacContext& ctx, std::uint64_t) override {
    Packet beacon;
    beacon.source = ctx.self();
    beacon.destination = kBroadcast;
    beacon.size_bits = 1.0e3;
    beacon.sender_local_s = 123.456;
    ctx.transmit(beacon, kBroadcast, power_, ctx.now());
  }
  void on_enqueue(MacContext& ctx, const Packet& pkt, StationId) override {
    ctx.drop(pkt);
  }
  void on_broadcast_received(MacContext& ctx, const Packet& pkt,
                             StationId from, double signal_w) override {
    heard.push_back({from, signal_w, ctx.now(), pkt.sender_local_s});
  }

  std::vector<Heard> heard;

 private:
  bool send_;
  double power_;
};

TEST(Broadcast, EveryStationInRangeReceives) {
  radio::PropagationMatrix m(4);
  m.set_gain(0, 1, radio::LinearGain{0.5});
  m.set_gain(0, 2, radio::LinearGain{0.25});
  m.set_gain(0, 3, radio::LinearGain{1e-9});  // in range too (huge processing gain, no noise)
  Simulator sim(m, config_with(spread_criterion(), 1.0e-18));
  auto* sender = new BeaconMac(true);
  std::vector<BeaconMac*> listeners;
  sim.set_mac(0, std::unique_ptr<MacProtocol>(sender));
  for (StationId s = 1; s < 4; ++s) {
    auto mac = std::make_unique<BeaconMac>(false);
    listeners.push_back(mac.get());
    sim.set_mac(s, std::move(mac));
  }
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().broadcasts_sent(), 1u);
  EXPECT_EQ(sim.metrics().broadcast_receptions(), 3u);
  EXPECT_EQ(sim.metrics().hop_attempts(), 0u);  // broadcasts are not hops
  ASSERT_EQ(listeners[0]->heard.size(), 1u);
  EXPECT_EQ(listeners[0]->heard[0].from, 0u);
  EXPECT_DOUBLE_EQ(listeners[0]->heard[0].signal_w, 0.5);  // gain * 1 W
  EXPECT_DOUBLE_EQ(listeners[0]->heard[0].stamp_s, 123.456);
  EXPECT_DOUBLE_EQ(listeners[1]->heard[0].signal_w, 0.25);
}

TEST(Broadcast, OutOfRangeStationMissesIt) {
  radio::PropagationMatrix m(3);
  m.set_gain(0, 1, radio::LinearGain{0.5});
  m.set_gain(0, 2, radio::LinearGain{1e-9});
  auto cfg = config_with(spread_criterion(), /*thermal=*/1e-6);
  Simulator sim(m, cfg);  // station 2's SNR = 1e-9/1e-6 = -30 dB: undecodable
  sim.set_mac(0, std::make_unique<BeaconMac>(true));
  auto* near = new BeaconMac(false);
  auto* far = new BeaconMac(false);
  sim.set_mac(1, std::unique_ptr<MacProtocol>(near));
  sim.set_mac(2, std::unique_ptr<MacProtocol>(far));
  sim.run_until(1.0);
  EXPECT_EQ(near->heard.size(), 1u);
  EXPECT_TRUE(far->heard.empty());
  EXPECT_EQ(sim.metrics().broadcast_receptions(), 1u);
  // Broadcast losses are not counted in the unicast loss taxonomy.
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
}

TEST(Broadcast, TransmittingStationCannotHearIt) {
  radio::PropagationMatrix m(3);
  m.set_gain(0, 1, radio::LinearGain{0.5});
  m.set_gain(0, 2, radio::LinearGain{0.5});
  m.set_gain(1, 2, radio::LinearGain{1e-9});
  Simulator sim(m, config_with(spread_criterion()));
  sim.set_mac(0, std::make_unique<BeaconMac>(true));
  auto* idle = new BeaconMac(false);
  sim.set_mac(1, std::unique_ptr<MacProtocol>(idle));
  // Station 2 is busy transmitting its own packet throughout the beacon.
  sim.set_mac(2, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 1e-9, 1.0e4}}));
  sim.run_until(1.0);
  EXPECT_EQ(idle->heard.size(), 1u);
  EXPECT_EQ(sim.metrics().broadcast_receptions(), 1u);  // only station 1
}

TEST(PerTransmissionRate, AirtimeFollowsRate) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{0.5});
  Simulator sim(m, config_with(spread_criterion()));
  // 1e4 bits at 4 Mb/s (4x design rate): airtime 2.5 ms instead of 10 ms.
  class RateMac final : public MacProtocol {
   public:
    void on_start(MacContext& ctx) override { ctx.set_timer(0.0, 0); }
    void on_timer(MacContext& ctx, std::uint64_t) override {
      Packet p;
      p.source = ctx.self();
      p.destination = 1;
      p.size_bits = 1.0e4;
      ctx.transmit(p, 1, 1.0, ctx.now(), 4.0e6);
    }
    void on_enqueue(MacContext& ctx, const Packet& p, StationId) override {
      ctx.drop(p);
    }
  };
  sim.set_mac(0, std::make_unique<RateMac>());
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().hop_successes(), 1u);
  EXPECT_DOUBLE_EQ(sim.metrics().airtime_s(0), 0.0025);
}

TEST(PerTransmissionRate, HigherRateNeedsHigherSinr) {
  // Noise floor set so the design rate (1 Mb/s over 200 MHz) clears the
  // threshold but 64 Mb/s does not.
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0e-3});
  auto cfg = config_with(spread_criterion(), /*thermal=*/1.0e-2);
  // SINR = 1e-3/1e-2 = 0.1. Design rate needs ~0.011; 64 Mb/s needs
  // 3.16*(2^0.32 - 1) ~ 0.78.
  {
    Simulator sim(m, cfg);
    sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                       {0.0, 1, 1.0, 1.0e4}}));
    sim.set_mac(1, std::make_unique<IdleMac>());
    sim.run_until(1.0);
    EXPECT_EQ(sim.metrics().hop_successes(), 1u);
  }
  {
    class FastMac final : public MacProtocol {
     public:
      void on_start(MacContext& ctx) override { ctx.set_timer(0.0, 0); }
      void on_timer(MacContext& ctx, std::uint64_t) override {
        Packet p;
        p.source = 0;
        p.destination = 1;
        p.size_bits = 1.0e4;
        ctx.transmit(p, 1, 1.0, ctx.now(), 64.0e6);
      }
      void on_enqueue(MacContext& ctx, const Packet& p, StationId) override {
        ctx.drop(p);
      }
    };
    Simulator sim(m, cfg);
    sim.set_mac(0, std::make_unique<FastMac>());
    sim.set_mac(1, std::make_unique<IdleMac>());
    sim.run_until(1.0);
    EXPECT_EQ(sim.metrics().hop_successes(), 0u);
    EXPECT_EQ(sim.metrics().losses(LossType::kType1), 1u);
  }
}

TEST(Observer, SeesTransmissionsAndReceptions) {
  class Recorder final : public SimObserver {
   public:
    std::vector<TxEvent> txs;
    std::vector<RxEvent> rxs;
    void on_transmit_start(const TxEvent& tx) override { txs.push_back(tx); }
    void on_reception_complete(const RxEvent& rx) override {
      rxs.push_back(rx);
    }
  };
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{0.5});
  Simulator sim(m, config_with(spread_criterion(), 0.05));
  Recorder rec;
  sim.add_observer(&rec);
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.25, 1, 2.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.run_until(1.0);
  ASSERT_EQ(rec.txs.size(), 1u);
  EXPECT_EQ(rec.txs[0].from, 0u);
  EXPECT_EQ(rec.txs[0].to, 1u);
  EXPECT_DOUBLE_EQ(rec.txs[0].power_w, 2.0);
  EXPECT_DOUBLE_EQ(rec.txs[0].start_s, 0.25);
  EXPECT_DOUBLE_EQ(rec.txs[0].end_s, 0.26);
  EXPECT_DOUBLE_EQ(rec.txs[0].rate_bps, 1.0e6);
  ASSERT_EQ(rec.rxs.size(), 1u);
  EXPECT_TRUE(rec.rxs[0].delivered);
  EXPECT_DOUBLE_EQ(rec.rxs[0].signal_w, 1.0);          // 0.5 gain * 2 W
  EXPECT_DOUBLE_EQ(rec.rxs[0].min_sinr, 1.0 / 0.05);   // thermal only
}

TEST(MultiuserDetection, SubtractionRescuesJammedReception) {
  // A strong interferer would kill the reception; with k=1 subtraction the
  // receiver cancels it (footnote 2's "model and subtract ... the strongest
  // interfering signals").
  auto build = [](int k) {
    radio::PropagationMatrix m(4);
    m.set_gain(1, 0, radio::LinearGain{1.0});   // desired 0 -> 1
    m.set_gain(1, 2, radio::LinearGain{50.0});  // jammer at receiver
    m.set_gain(2, 3, radio::LinearGain{1.0});   // jammer's own link 2 -> 3
    auto cfg = SimulatorConfig{radio::ReceptionCriterion(radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0})};
    cfg.thermal_noise_w = 1.0e-3;
    cfg.multiuser_subtract_k = k;
    return std::pair{m, cfg};
  };
  for (int k : {0, 1}) {
    auto [m, cfg] = build(k);
    Simulator sim(m, cfg);
    sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                       {0.0, 1, 1.0, 1.0e4}}));
    sim.set_mac(1, std::make_unique<IdleMac>());
    sim.set_mac(2, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                       {0.002, 3, 1.0, 1.0e4}}));
    sim.set_mac(3, std::make_unique<IdleMac>());
    sim.run_until(1.0);
    if (k == 0) {
      EXPECT_EQ(sim.metrics().losses(LossType::kType1), 1u) << "k=" << k;
    } else {
      EXPECT_EQ(sim.metrics().total_hop_losses(), 0u) << "k=" << k;
      EXPECT_EQ(sim.metrics().hop_successes(), 2u) << "k=" << k;
    }
  }
}

TEST(MultiuserDetection, SubtractionCapResidualIsThermal) {
  // With k large enough to cancel every interferer, SINR returns to the
  // thermal-limited value, not infinity.
  radio::PropagationMatrix m(3);
  m.set_gain(1, 0, radio::LinearGain{1.0});
  m.set_gain(1, 2, radio::LinearGain{10.0});
  m.set_gain(0, 2, radio::LinearGain{1e-9});
  auto cfg = SimulatorConfig{radio::ReceptionCriterion(radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0})};
  cfg.thermal_noise_w = 0.25;
  cfg.multiuser_subtract_k = 4;
  class Recorder final : public SimObserver {
   public:
    std::vector<RxEvent> rxs;
    void on_reception_complete(const RxEvent& rx) override {
      rxs.push_back(rx);
    }
  };
  Recorder rec;
  Simulator sim(m, cfg);
  sim.add_observer(&rec);
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 1, 1.0, 1.0e4}}));
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.set_mac(2, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.001, 0, 1.0, 1.0e3}}));
  sim.run_until(1.0);
  // Find the 0->1 reception: its min SINR is signal/thermal = 4 even while
  // the 10 W interference contribution is on the air.
  bool found = false;
  for (const auto& rx : rec.rxs) {
    if (rx.rx == 1) {
      EXPECT_NEAR(rx.min_sinr, 1.0 / 0.25, 1e-9);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MultiuserDetection, BroadcastContributionsTrackedAcrossStartAndEnd) {
  // Broadcast + multiuser_subtract_k > 0: per-interferer contributions must
  // be tracked for every broadcast reception across all three paths —
  // open_reception (jammer 3 is already on air when the beacon starts),
  // transmit start (jammer 5 keys up mid-beacon) and transmit end (jammer 5
  // leaves the air mid-beacon). With k=2 the listeners cancel both jammers
  // and hear the beacon at the thermal-limited SINR throughout.
  radio::PropagationMatrix m(6);
  for (StationId s = 1; s < 6; ++s) m.set_gain(0, s, radio::LinearGain{0.5});  // beacon links
  m.set_gain(3, 1, radio::LinearGain{50.0});  // jammer 1 blankets both listeners
  m.set_gain(3, 2, radio::LinearGain{50.0});
  m.set_gain(5, 1, radio::LinearGain{50.0});  // jammer 2 too
  m.set_gain(5, 2, radio::LinearGain{50.0});
  m.set_gain(3, 4, radio::LinearGain{1.0});   // jammers' own unicast links to station 4
  m.set_gain(5, 4, radio::LinearGain{1.0});
  auto cfg = SimulatorConfig{radio::ReceptionCriterion(radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0})};
  cfg.thermal_noise_w = 1.0e-3;
  cfg.multiuser_subtract_k = 2;
  class Recorder final : public SimObserver {
   public:
    std::vector<RxEvent> rxs;
    void on_reception_complete(const RxEvent& rx) override {
      rxs.push_back(rx);
    }
  };
  Recorder rec;
  Simulator sim(m, cfg);
  drn::testing::ScopedAudit audited(sim);
  sim.add_observer(&rec);
  // Beacon: 2 ms .. 12 ms. Jammer 3: 0 .. 20 ms. Jammer 5: 5 .. 6 ms.
  class Beacon final : public MacProtocol {
   public:
    void on_start(MacContext& ctx) override { ctx.set_timer(0.002, 0); }
    void on_timer(MacContext& ctx, std::uint64_t) override {
      Packet b;
      b.source = ctx.self();
      b.destination = kBroadcast;
      b.size_bits = 1.0e4;
      ctx.transmit(b, kBroadcast, 1.0, ctx.now());
    }
    void on_enqueue(MacContext& ctx, const Packet& p, StationId) override {
      ctx.drop(p);
    }
  };
  sim.set_mac(0, std::make_unique<Beacon>());
  sim.set_mac(1, std::make_unique<IdleMac>());
  sim.set_mac(2, std::make_unique<IdleMac>());
  sim.set_mac(3, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 4, 1.0, 2.0e4}}));
  sim.set_mac(4, std::make_unique<IdleMac>());
  sim.set_mac(5, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.005, 4, 1.0, 1.0e3}}));
  sim.run_until(1.0);
  EXPECT_EQ(sim.metrics().broadcasts_sent(), 1u);
  // Stations 1, 2 and 4 hear the beacon; 3 is transmitting throughout and 5
  // keys up mid-beacon (half-duplex kill).
  EXPECT_EQ(sim.metrics().broadcast_receptions(), 3u);
  // Both jammers' unicasts to 4 get through (each cancels the other + the
  // beacon).
  EXPECT_EQ(sim.metrics().hop_successes(), 2u);
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
  // The listeners' beacon SINR is thermal-limited for the whole airtime:
  // every jammer contribution was cancelled, whether it predated the beacon,
  // keyed up mid-flight, or ended mid-flight.
  int checked = 0;
  for (const auto& rx : rec.rxs) {
    if ((rx.rx == 1 || rx.rx == 2) && rx.delivered) {
      EXPECT_NEAR(rx.min_sinr, 0.5 / 1.0e-3, 1e-6);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2);
}

TEST(MultiuserDetection, AbortedInterfererLeavesNothingToCancel) {
  // Station 2's strong signal is cut short by deactivate_station while the
  // 0 -> 1 reception is in flight; then two equal interferers (4 and 5) key
  // up. With k = 1 the receiver cancels one survivor and the other sinks
  // the reception below the 0 dB threshold. Were the aborted signal still
  // counted as an interferer, it would be the strongest and be cancelled
  // instead: the residual would clamp at the thermal floor and the packet
  // would get through.
  radio::PropagationMatrix m(8);
  m.set_gain(1, 0, radio::LinearGain{1.0});   // desired 0 -> 1
  m.set_gain(1, 2, radio::LinearGain{50.0});  // the aborted interferer
  m.set_gain(1, 4, radio::LinearGain{2.0});   // two equal survivors
  m.set_gain(1, 5, radio::LinearGain{2.0});
  m.set_gain(2, 3, radio::LinearGain{1.0});   // the interferers' own links
  m.set_gain(4, 6, radio::LinearGain{1.0});
  m.set_gain(5, 7, radio::LinearGain{1.0});
  auto cfg = SimulatorConfig{radio::ReceptionCriterion(
      radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0})};
  const double thermal_w = 1.0e-3;
  cfg.thermal_noise_w = thermal_w;
  cfg.multiuser_subtract_k = 1;
  TraceRecorder trace;
  Simulator sim(m, cfg);
  drn::testing::ScopedAudit audited(sim);
  sim.add_observer(&trace);
  // Victim 0 -> 1: 1 .. 11 ms. Station 2: from 0 ms, aborted at 3 ms.
  // Survivors: 4 from 5 ms, 5 from 6 ms, both still on the air at 11 ms.
  sim.set_mac(0, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.001, 1, 1.0, 1.0e4}}));
  sim.set_mac(2, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.0, 3, 1.0, 2.0e4}}));
  sim.set_mac(4, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.005, 6, 1.0, 1.0e4}}));
  sim.set_mac(5, std::make_unique<ScriptMac>(std::vector<ScriptedTx>{
                     {0.006, 7, 1.0, 1.0e4}}));
  for (const StationId s : {1u, 3u, 6u, 7u})
    sim.set_mac(s, std::make_unique<IdleMac>());
  sim.run_until(0.003);
  sim.deactivate_station(2);
  sim.run_until(1.0);

  const RxEvent* victim = nullptr;
  for (const auto& rx : trace.receptions())
    if (rx.rx == 1) victim = &rx;
  ASSERT_NE(victim, nullptr);
  EXPECT_FALSE(victim->delivered);
  // Both survivors are third parties: Type 1.
  EXPECT_EQ(victim->loss, LossType::kType1);
  // Worst instant: interference thermal + 2 + 2 W, one 2 W term cancelled.
  EXPECT_DOUBLE_EQ(victim->min_sinr, 1.0 / ((thermal_w + 4.0) - 2.0));
  EXPECT_EQ(sim.metrics().losses(LossType::kType1), 1u);
}

TEST(Broadcast, InjectToBroadcastIsRejected) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  Simulator sim(m, config_with(spread_criterion()));
  Packet p;
  p.source = 0;
  p.destination = kBroadcast;
  p.size_bits = 100.0;
  EXPECT_THROW(sim.inject(0.0, p), ContractViolation);
}

}  // namespace
}  // namespace drn::sim
