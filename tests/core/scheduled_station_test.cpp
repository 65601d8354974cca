#include "core/scheduled_station.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/expects.hpp"
#include "helpers/test_macs.hpp"
#include "sim/simulator.hpp"

namespace drn::core {
namespace {

// A criterion with heavy processing gain so the schedule, not SINR, decides
// outcomes in these unit tests (required SINR ~ -17.6 dB).
radio::ReceptionCriterion criterion() {
  return radio::ReceptionCriterion(radio::Hertz{200.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{5.0});
}

constexpr double kSlot = 0.01;
constexpr double kAirtime = kSlot / 4.0;
// Packet sized so airtime at the criterion's 1 Mb/s rate is a quarter slot.
constexpr double kPacketBits = 1.0e6 * kAirtime;

ScheduledStationConfig station_config(const Schedule& schedule,
                                      StationClock clock,
                                      double guard = 0.0002) {
  ScheduledStationConfig cfg{schedule, clock, kAirtime, guard,
                             PowerControl::fixed(1.0)};
  return cfg;
}

Neighbor neighbor_of(StationId id, double gain, const StationClock& mine,
                     const StationClock& theirs, bool respect = false) {
  Neighbor n;
  n.id = id;
  n.gain = gain;
  n.clock = ClockModel::exact(mine, theirs);
  n.respect_receive_windows = respect;
  return n;
}

sim::SimulatorConfig sim_config() {
  sim::SimulatorConfig cfg{criterion()};
  cfg.thermal_noise_w = 1.0e-15;
  return cfg;
}

sim::Packet packet(StationId src, StationId dst) {
  sim::Packet p;
  p.source = src;
  p.destination = dst;
  p.size_bits = kPacketBits;
  return p;
}

TEST(ScheduledStation, DeliversSinglePacketCollisionFree) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, sim_config());

  const Schedule schedule(1001, kSlot, 0.3);
  const StationClock c0(Seconds{0.0});
  const StationClock c1(Seconds{123.4567});
  NeighborTable t0;
  t0.add(neighbor_of(1, 1.0, c0, c1));
  NeighborTable t1;
  t1.add(neighbor_of(0, 1.0, c1, c0));
  sim.set_mac(0, std::make_unique<ScheduledStation>(
                     station_config(schedule, c0), std::move(t0)));
  sim.set_mac(1, std::make_unique<ScheduledStation>(
                     station_config(schedule, c1), std::move(t1)));

  sim.inject(0.0, packet(0, 1));
  sim.run_until(10.0);
  EXPECT_EQ(sim.metrics().delivered(), 1u);
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
  // The wait for a window is a handful of slots, not seconds.
  EXPECT_LT(sim.metrics().delay().mean(), 100 * kSlot);
}

TEST(ScheduledStation, StreamsManyPacketsWithoutLoss) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, sim_config());

  const Schedule schedule(1002, kSlot, 0.3);
  const StationClock c0(Seconds{0.0});
  const StationClock c1(Seconds{77.777});
  NeighborTable t0;
  t0.add(neighbor_of(1, 1.0, c0, c1));
  NeighborTable t1;
  t1.add(neighbor_of(0, 1.0, c1, c0));
  sim.set_mac(0, std::make_unique<ScheduledStation>(
                     station_config(schedule, c0), std::move(t0)));
  sim.set_mac(1, std::make_unique<ScheduledStation>(
                     station_config(schedule, c1), std::move(t1)));

  for (int i = 0; i < 50; ++i) sim.inject(0.001 * i, packet(0, 1));
  sim.run_until(60.0);
  EXPECT_EQ(sim.metrics().delivered(), 50u);
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
  EXPECT_EQ(sim.metrics().losses(sim::LossType::kType3), 0u);
}

TEST(ScheduledStation, BidirectionalTrafficNeverSelfCollides) {
  // The whole point of the scheme: even with both stations loaded, no packet
  // is ever lost to the receiver's own transmitter (Type 3).
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, sim_config());

  const Schedule schedule(1003, kSlot, 0.3);
  const StationClock c0(Seconds{0.0});
  const StationClock c1(Seconds{5.4321});
  NeighborTable t0;
  t0.add(neighbor_of(1, 1.0, c0, c1));
  NeighborTable t1;
  t1.add(neighbor_of(0, 1.0, c1, c0));
  sim.set_mac(0, std::make_unique<ScheduledStation>(
                     station_config(schedule, c0), std::move(t0)));
  sim.set_mac(1, std::make_unique<ScheduledStation>(
                     station_config(schedule, c1), std::move(t1)));

  for (int i = 0; i < 40; ++i) {
    sim.inject(0.002 * i, packet(0, 1));
    sim.inject(0.002 * i + 0.001, packet(1, 0));
  }
  sim.run_until(60.0);
  EXPECT_EQ(sim.metrics().delivered(), 80u);
  EXPECT_EQ(sim.metrics().losses(sim::LossType::kType3), 0u);
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
}

TEST(ScheduledStation, NoHeadOfLineBlocking) {
  // Neighbour 1's schedule is phase-identical to ours (permanently
  // unreachable); neighbour 2 is reachable. A packet stuck for 1 must not
  // stop the packet for 2 (Section 7.2: "a station need not block the head
  // of the line").
  radio::PropagationMatrix m(3);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  m.set_gain(0, 2, radio::LinearGain{1.0});
  m.set_gain(1, 2, radio::LinearGain{1e-9});
  sim::Simulator sim(m, sim_config());

  const Schedule schedule(1004, kSlot, 0.3);
  const StationClock c0(Seconds{0.0});
  const StationClock c1(Seconds{0.0});  // identical phase: starved pair
  const StationClock c2(Seconds{3.14159});
  NeighborTable t0;
  t0.add(neighbor_of(1, 1.0, c0, c1));
  t0.add(neighbor_of(2, 1.0, c0, c2));
  sim.set_mac(0, std::make_unique<ScheduledStation>(
                     station_config(schedule, c0), std::move(t0)));
  NeighborTable t1;
  t1.add(neighbor_of(0, 1.0, c1, c0));
  sim.set_mac(1, std::make_unique<ScheduledStation>(
                     station_config(schedule, c1), std::move(t1)));
  NeighborTable t2;
  t2.add(neighbor_of(0, 1.0, c2, c0));
  sim.set_mac(2, std::make_unique<ScheduledStation>(
                     station_config(schedule, c2), std::move(t2)));

  sim.inject(0.0, packet(0, 1));     // never sendable
  sim.inject(0.0005, packet(0, 2));  // must go through anyway
  sim.run_until(10.0);
  EXPECT_EQ(sim.metrics().delivered(), 1u);
  EXPECT_DOUBLE_EQ(sim.metrics().hops().mean(), 1.0);
}

TEST(ScheduledStation, FittedClockModelsWithGuardStillCollisionFree) {
  // Realistic mode: neighbours know each other's clocks only through noisy
  // rendezvous fits; the guard absorbs the prediction error.
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, sim_config());

  const Schedule schedule(1005, kSlot, 0.3);
  Rng rng(321);
  const StationClock c0 = StationClock::random(rng, Seconds{100.0}, 20.0);
  const StationClock c1 = StationClock::random(rng, Seconds{100.0}, 20.0);
  std::vector<double> times = {-120.0, -80.0, -40.0, -1.0};
  auto fit_model = [&](const StationClock& mine, const StationClock& theirs) {
    return ClockModel::fit(rendezvous(mine, theirs, times, 2.0e-6, rng));
  };
  Neighbor n01;
  n01.id = 1;
  n01.gain = 1.0;
  n01.clock = fit_model(c0, c1);
  Neighbor n10;
  n10.id = 0;
  n10.gain = 1.0;
  n10.clock = fit_model(c1, c0);
  NeighborTable t0;
  t0.add(n01);
  NeighborTable t1;
  t1.add(n10);
  sim.set_mac(0, std::make_unique<ScheduledStation>(
                     station_config(schedule, c0, /*guard=*/0.0005),
                     std::move(t0)));
  sim.set_mac(1, std::make_unique<ScheduledStation>(
                     station_config(schedule, c1, /*guard=*/0.0005),
                     std::move(t1)));

  for (int i = 0; i < 30; ++i) {
    sim.inject(0.003 * i, packet(0, 1));
    sim.inject(0.003 * i + 0.0015, packet(1, 0));
  }
  sim.run_until(60.0);
  EXPECT_EQ(sim.metrics().delivered(), 60u);
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
}

TEST(ScheduledStation, QueueOverflowDrops) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, sim_config());

  const Schedule schedule(1006, kSlot, 0.3);
  const StationClock c0(Seconds{0.0});
  const StationClock c1(Seconds{42.42});
  NeighborTable t0;
  t0.add(neighbor_of(1, 1.0, c0, c1));
  auto cfg = station_config(schedule, c0);
  cfg.max_queue = 2;
  sim.set_mac(0, std::make_unique<ScheduledStation>(cfg, std::move(t0)));
  NeighborTable t1;
  t1.add(neighbor_of(0, 1.0, c1, c0));
  sim.set_mac(1, std::make_unique<ScheduledStation>(
                     station_config(schedule, c1), std::move(t1)));

  for (int i = 0; i < 10; ++i) sim.inject(0.0, packet(0, 1));
  sim.run_until(10.0);
  EXPECT_GT(sim.metrics().mac_drops(), 0u);
  EXPECT_GT(sim.metrics().delivered(), 0u);
  EXPECT_EQ(sim.metrics().delivered() + sim.metrics().mac_drops(), 10u);
}

TEST(ScheduledStation, UnknownNextHopIsDropped) {
  radio::PropagationMatrix m(3);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  m.set_gain(0, 2, radio::LinearGain{1.0});
  m.set_gain(1, 2, radio::LinearGain{1.0});
  sim::Simulator sim(m, sim_config());

  const Schedule schedule(1007, kSlot, 0.3);
  const StationClock c0(Seconds{0.0});
  NeighborTable t0;  // knows only station 1
  t0.add(neighbor_of(1, 1.0, c0, StationClock(Seconds{9.9})));
  sim.set_mac(0, std::make_unique<ScheduledStation>(
                     station_config(schedule, c0), std::move(t0)));
  sim.set_mac(1, std::make_unique<drn::testing::IdleMac>());
  sim.set_mac(2, std::make_unique<drn::testing::IdleMac>());

  sim.inject(0.0, packet(0, 2));  // direct router says next hop 2: unknown
  sim.run_until(5.0);
  EXPECT_EQ(sim.metrics().mac_drops(), 1u);
  EXPECT_EQ(sim.metrics().delivered(), 0u);
}

TEST(ScheduledStation, PerLinkRateShortensAirtime) {
  // Extension (core/rate_selection): a neighbour marked with a 4x link rate
  // gets 4x-shorter transmissions for the same packet, and the schedule
  // machinery still works (variable durations in the window search).
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, sim_config());

  const Schedule schedule(1010, kSlot, 0.3);
  const StationClock c0(Seconds{0.0});
  const StationClock c1(Seconds{888.888});
  Neighbor n = neighbor_of(1, 1.0, c0, c1);
  n.rate_bps = 4.0e6;
  NeighborTable t0;
  t0.add(n);
  auto cfg = station_config(schedule, c0);
  cfg.data_rate_bps = 1.0e6;  // design rate, enables per-packet airtimes
  sim.set_mac(0, std::make_unique<ScheduledStation>(cfg, std::move(t0)));
  NeighborTable t1;
  t1.add(neighbor_of(0, 1.0, c1, c0));
  sim.set_mac(1, std::make_unique<ScheduledStation>(
                     station_config(schedule, c1), std::move(t1)));

  for (int i = 0; i < 8; ++i) sim.inject(0.001 * i, packet(0, 1));
  sim.run_until(20.0);
  EXPECT_EQ(sim.metrics().delivered(), 8u);
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
  // 8 packets of kPacketBits at 4 Mb/s: airtime kAirtime/4 each.
  EXPECT_NEAR(sim.metrics().airtime_s(0), 8.0 * kAirtime / 4.0, 1e-9);
}

TEST(ScheduledStation, OversizedPacketStillSchedulsAcrossSlotRuns) {
  // A packet longer than one slot needs a run of consecutive transmit slots
  // here and receive slots there; rare but legal. With p = 0.3, double
  // receive slots occur every ~11 slots, so it goes through eventually.
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  sim::Simulator sim(m, sim_config());
  const Schedule schedule(1011, kSlot, 0.3);
  const StationClock c0(Seconds{0.0});
  const StationClock c1(Seconds{17.3});
  NeighborTable t0;
  t0.add(neighbor_of(1, 1.0, c0, c1));
  auto cfg = station_config(schedule, c0, /*guard=*/0.0001);
  cfg.data_rate_bps = 1.0e6;
  sim.set_mac(0, std::make_unique<ScheduledStation>(cfg, std::move(t0)));
  NeighborTable t1;
  t1.add(neighbor_of(0, 1.0, c1, c0));
  sim.set_mac(1, std::make_unique<ScheduledStation>(
                     station_config(schedule, c1), std::move(t1)));

  sim::Packet p = packet(0, 1);
  p.size_bits = 1.2e4;  // 12 ms at 1 Mb/s: 1.2 slots
  sim.inject(0.0, p);
  sim.run_until(120.0);
  EXPECT_EQ(sim.metrics().delivered(), 1u);
  EXPECT_EQ(sim.metrics().total_hop_losses(), 0u);
}

TEST(ScheduledStation, ConfigContracts) {
  const Schedule schedule(1, kSlot, 0.3);
  ScheduledStationConfig cfg{schedule, StationClock(), kAirtime, 0.0,
                             PowerControl::fixed(1.0)};
  cfg.packet_airtime_s = 0.0;
  EXPECT_THROW(ScheduledStation(cfg, NeighborTable()), ContractViolation);
  cfg.packet_airtime_s = kAirtime;
  cfg.guard_s = -1.0;
  EXPECT_THROW(ScheduledStation(cfg, NeighborTable()), ContractViolation);
  cfg.guard_s = kSlot;  // packet + guards no longer fits in one slot
  EXPECT_THROW(ScheduledStation(cfg, NeighborTable()), ContractViolation);
}

}  // namespace
}  // namespace drn::core
