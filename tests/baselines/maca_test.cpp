#include "baselines/maca.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/expects.hpp"
#include "helpers/test_macs.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace drn::baselines {
namespace {

radio::ReceptionCriterion criterion() {
  return radio::ReceptionCriterion(radio::Hertz{1.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{0.0});
}

sim::SimulatorConfig config() {
  sim::SimulatorConfig cfg{criterion()};
  cfg.thermal_noise_w = 1.0e-15;
  return cfg;
}

sim::Packet packet(StationId src, StationId dst, double bits = 1.0e4) {
  sim::Packet p;
  p.source = src;
  p.destination = dst;
  p.size_bits = bits;
  return p;
}

TEST(Maca, CleanHandshakeDeliversData) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, config());
  sim::TraceRecorder trace;
  sim.add_observer(&trace);
  sim.set_mac(0, std::make_unique<MacaMac>(MacaConfig{}));
  sim.set_mac(1, std::make_unique<MacaMac>(MacaConfig{}));
  sim.inject(0.0, packet(0, 1));
  sim.run_until(5.0);
  EXPECT_EQ(sim.metrics().delivered(), 1u);
  // Three frames on the air: RTS, CTS, DATA.
  ASSERT_EQ(trace.transmissions().size(), 3u);
  EXPECT_EQ(trace.transmissions()[0].from, 0u);  // RTS
  EXPECT_EQ(trace.transmissions()[0].to, kBroadcast);
  EXPECT_EQ(trace.transmissions()[1].from, 1u);  // CTS
  EXPECT_EQ(trace.transmissions()[2].from, 0u);  // DATA
  EXPECT_EQ(trace.transmissions()[2].to, 1u);
  // Handshake ordering with turnarounds.
  EXPECT_GT(trace.transmissions()[1].start_s, trace.transmissions()[0].end_s);
  EXPECT_GT(trace.transmissions()[2].start_s, trace.transmissions()[1].end_s);
}

TEST(Maca, HiddenTerminalsAreSilencedByCts) {
  // The MACA success story: 0 and 2 are hidden from each other but both
  // reach 1. Station 2 overhears 1's CTS to 0 and defers its own RTS until
  // the data frame is done — so the DATA frames do not collide.
  radio::PropagationMatrix m(3);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  m.set_gain(2, 1, radio::LinearGain{1.0});
  m.set_gain(0, 2, radio::LinearGain{1e-9});  // hidden pair
  sim::Simulator sim(m, config());
  for (StationId s = 0; s < 3; ++s)
    sim.set_mac(s, std::make_unique<MacaMac>(MacaConfig{}));
  sim.inject(0.0, packet(0, 1));
  // Arrives after 0's handshake is in progress (post-CTS, mid-data).
  sim.inject(0.002, packet(2, 1));
  sim.run_until(10.0);
  EXPECT_EQ(sim.metrics().delivered(), 2u);
}

TEST(Maca, RtsCollisionRecoversThroughBackoff) {
  // Simultaneous RTSs to the same station collide (cheaply — they are
  // short); binary exponential backoff desynchronises the retries.
  radio::PropagationMatrix m(3);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  m.set_gain(2, 1, radio::LinearGain{1.0});
  m.set_gain(0, 2, radio::LinearGain{1e-9});
  sim::Simulator sim(m, config());
  for (StationId s = 0; s < 3; ++s)
    sim.set_mac(s, std::make_unique<MacaMac>(MacaConfig{}));
  sim.inject(0.0, packet(0, 1));
  sim.inject(0.0, packet(2, 1));  // RTSs collide at station 1
  sim.run_until(30.0);
  EXPECT_EQ(sim.metrics().delivered(), 2u);
}

TEST(Maca, NoCtsExhaustsRetriesAndDrops) {
  // The addressee cannot hear us at all: every RTS times out.
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0e-9});
  auto cfg = config();
  cfg.thermal_noise_w = 1.0;  // RTS undecodable at the peer
  sim::Simulator sim(m, cfg);
  MacaConfig mc;
  mc.max_retries = 3;
  mc.backoff_mean_s = 0.002;
  sim.set_mac(0, std::make_unique<MacaMac>(mc));
  sim.set_mac(1, std::make_unique<MacaMac>(mc));
  sim.inject(0.0, packet(0, 1));
  sim.run_until(60.0);
  EXPECT_EQ(sim.metrics().delivered(), 0u);
  EXPECT_EQ(sim.metrics().mac_drops(), 1u);
}

TEST(Maca, ControlOverheadIsCharged) {
  // Airtime includes RTS+CTS: for a 10 ms data frame with 160-bit control
  // frames, station 0 radiates 10.16 ms and station 1 radiates 0.16 ms.
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, config());
  sim.set_mac(0, std::make_unique<MacaMac>(MacaConfig{}));
  sim.set_mac(1, std::make_unique<MacaMac>(MacaConfig{}));
  sim.inject(0.0, packet(0, 1));
  sim.run_until(5.0);
  EXPECT_NEAR(sim.metrics().airtime_s(0), 0.01 + 0.00016, 1e-9);
  EXPECT_NEAR(sim.metrics().airtime_s(1), 0.00016, 1e-9);
}

TEST(Maca, QueueOverflowDrops) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, config());
  MacaConfig mc;
  mc.max_queue = 2;
  sim.set_mac(0, std::make_unique<MacaMac>(mc));
  sim.set_mac(1, std::make_unique<MacaMac>(MacaConfig{}));
  for (int i = 0; i < 6; ++i) sim.inject(0.0, packet(0, 1));
  sim.run_until(10.0);
  EXPECT_EQ(sim.metrics().delivered() + sim.metrics().mac_drops(), 6u);
  EXPECT_GT(sim.metrics().mac_drops(), 0u);
}

TEST(Maca, ConfigContracts) {
  MacaConfig mc;
  mc.power_w = 0.0;
  EXPECT_THROW(MacaMac{mc}, ContractViolation);
  mc = {};
  mc.data_rate_bps = 0.0;
  EXPECT_THROW(MacaMac{mc}, ContractViolation);
}

}  // namespace
}  // namespace drn::baselines
