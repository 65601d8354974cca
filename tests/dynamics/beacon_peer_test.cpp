// Per-beaconer state in ScheduledStation, driven hook by hook through a stub
// MacContext so every clock stamp is known: which beaconers get state, what
// a full stamp window keeps, and how eviction and re-adoption reset it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/rng.hpp"
#include "core/scheduled_station.hpp"
#include "sim/mac.hpp"

namespace drn::core {
namespace {

constexpr double kSlot = 0.01;
constexpr double kRate = 1.0e6;

/// A MacContext whose clock the test sets; timers and transmissions are
/// recorded (cookies) or ignored, never fired.
class StubContext final : public sim::MacContext {
 public:
  double now_s = 0.0;
  std::vector<std::uint64_t> cookies;  // every set_timer cookie, in order

  [[nodiscard]] double now() const override { return now_s; }
  [[nodiscard]] StationId self() const override { return 0; }
  void transmit(const sim::Packet& /*pkt*/, StationId /*to*/,
                double /*power_w*/, double /*start_s*/,
                double /*rate_bps*/) override {}
  void transmit_noise(double /*power_w*/, double /*start_s*/,
                      double /*duration_s*/) override {}
  sim::TimerHandle set_timer(double /*at_s*/, std::uint64_t cookie) override {
    cookies.push_back(cookie);
    return {};
  }
  bool cancel_timer(sim::TimerHandle /*h*/) override { return false; }
  [[nodiscard]] bool transmitting() const override { return false; }
  [[nodiscard]] double received_power_w() const override { return 0.0; }
  [[nodiscard]] double gain_to(StationId /*other*/) const override {
    return 0.0;
  }
  void drop(const sim::Packet& /*pkt*/) override {}
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  Rng rng_{7};
};

Neighbor neighbor(StationId id, double gain = 1.0e-4) {
  Neighbor n;
  n.id = id;
  n.gain = gain;
  return n;
}

ScheduledStationConfig beacon_config(bool readopt, double timeout_s = 0.0) {
  ScheduledStationConfig cfg{Schedule(2021, kSlot, 0.3), StationClock(),
                             kSlot / 4.0, /*guard_s=*/0.0002,
                             PowerControl::fixed(1.0e-4)};
  cfg.data_rate_bps = kRate;
  cfg.beacon_interval_s = 1.0;
  cfg.neighbor_timeout_s = timeout_s;
  cfg.readopt_neighbors = readopt;
  return cfg;
}

NeighborTable table(std::initializer_list<StationId> ids) {
  NeighborTable t;
  for (const StationId id : ids) t.add(neighbor(id));
  return t;
}

/// The stamp pair a beacon sent at sender-local `sent_local_s` and decoded
/// at global `now_s` leaves behind (the receiver's clock is the identity).
ClockSample stamp(double now_s, double sent_local_s) {
  return ClockSample{now_s, sent_local_s + kBeaconBits / kRate};
}

/// Delivers one beacon from `from`, sent at sender-local `sent_local_s`.
void hear(ScheduledStation& station, StubContext& ctx, StationId from,
          double now_s, double sent_local_s, double signal_w = 1.0e-8) {
  ctx.now_s = now_s;
  sim::Packet beacon;
  beacon.source = from;
  beacon.destination = kBroadcast;
  beacon.size_bits = kBeaconBits;
  beacon.sender_local_s = sent_local_s;
  beacon.tx_power_w = 1.0e-4;
  station.on_broadcast_received(ctx, beacon, from, signal_w);
}

/// Sender-local send time of beacon k: an offset clock running 150 ppm fast,
/// with a non-linear wobble so a fit over the wrong samples (or over the
/// right ones in another order) lands on different bits.
double sent_at(int k) {
  const double t = 0.5 + 0.25 * k;
  return 40.0 + (1.0 + 150e-6) * t + 1e-6 * k * k;
}

void expect_same_bits(const ClockModel& got, const ClockModel& want) {
  EXPECT_EQ(got.a(), want.a());
  EXPECT_EQ(got.b(), want.b());
  EXPECT_EQ(got.max_residual_s(), want.max_residual_s());
}

/// Delivers beacon k of `from` at global 0.5 + 0.25 k and records its stamp
/// in `heard`; then checks that `from` is a neighbour keeping the last
/// min(|heard|, 8) stamps and that its clock has the bits of a fit over
/// exactly those.
void hear_and_check(ScheduledStation& station, StubContext& ctx,
                    StationId from, int k, std::vector<ClockSample>& heard) {
  const double now = 0.5 + 0.25 * k;
  hear(station, ctx, from, now, sent_at(k));
  heard.push_back(stamp(now, sent_at(k)));
  const std::size_t kept =
      std::min(heard.size(), ScheduledStation::kMaxClockSamples);
  SCOPED_TRACE(heard.size());
  ASSERT_EQ(station.clock_samples_from(from), kept);
  const Neighbor* n = station.neighbors().find(from);
  ASSERT_NE(n, nullptr);
  const std::vector<ClockSample> window(heard.end() - static_cast<long>(kept),
                                        heard.end());
  expect_same_bits(n->clock, ClockModel::fit(window));
}

TEST(BeaconPeers, StrangersGetNoStateWithoutReadoption) {
  StubContext ctx;
  ScheduledStation station(beacon_config(/*readopt=*/false), table({1}));
  station.on_start(ctx);
  for (int k = 0; k < 3; ++k) {
    for (const StationId from : {1U, 2U, 3U})
      hear(station, ctx, from, 0.5 + 0.25 * k, sent_at(k));
  }
  // Only the neighbour is tracked: strangers 2 and 3 can never be adopted.
  EXPECT_EQ(station.beacon_peer_count(), 1U);
  EXPECT_EQ(station.clock_samples_from(1), 3U);
  EXPECT_EQ(station.clock_samples_from(2), 0U);
  EXPECT_EQ(station.neighbors().size(), 1U);
}

TEST(BeaconPeers, ReadoptionTracksAndAdoptsStrangers) {
  StubContext ctx;
  ScheduledStation station(beacon_config(/*readopt=*/true), table({1}));
  station.on_start(ctx);
  for (int k = 0; k < 2; ++k) {
    for (const StationId from : {1U, 2U, 3U})
      hear(station, ctx, from, 0.5 + 0.25 * k, sent_at(k));
  }
  EXPECT_EQ(station.beacon_peer_count(), 3U);
  // Two stamps each: both strangers adopted, after the original neighbour.
  const auto all = station.neighbors().all();
  ASSERT_EQ(all.size(), 3U);
  EXPECT_EQ(all[0].id, 1U);
  EXPECT_EQ(all[1].id, 2U);
  EXPECT_EQ(all[2].id, 3U);
}

TEST(BeaconPeers, FullWindowKeepsTheLastStampsInOrder) {
  StubContext ctx;
  const ScheduledStationConfig cfg = beacon_config(/*readopt=*/false);
  ScheduledStation station(cfg, table({1}));
  station.on_start(ctx);
  std::vector<ClockSample> heard;
  // Up to 8 stamps fill the window; every later one slides the oldest out.
  for (int k = 0; k < 19; ++k) {
    const double now = 0.5 + 0.25 * k;
    hear(station, ctx, 1, now, sent_at(k));
    heard.push_back(stamp(now, sent_at(k)));
    const std::size_t kept =
        std::min(heard.size(), ScheduledStation::kMaxClockSamples);
    ASSERT_EQ(station.clock_samples_from(1), kept);
    if (kept < 2) continue;
    const std::vector<ClockSample> window(heard.end() - static_cast<long>(kept),
                                          heard.end());
    SCOPED_TRACE(k);
    expect_same_bits(station.neighbors().find(1)->clock,
                     ClockModel::fit(window));
  }
}

TEST(BeaconPeers, AdoptedPeerWindowCrossesHeldAndSpillStamps) {
  StubContext ctx;
  ScheduledStation station(beacon_config(/*readopt=*/true), table({}));
  station.on_start(ctx);
  std::vector<ClockSample> heard;
  hear(station, ctx, 5, 0.5, sent_at(0));
  heard.push_back(stamp(0.5, sent_at(0)));
  // Adopted at stamp 2 (held), spilled at 3, full at 8, sliding from 9 on.
  for (int k = 1; k < 11; ++k) {
    hear_and_check(station, ctx, 5, k, heard);
    EXPECT_EQ(station.spill_windows(), k < 2 ? 0U : 1U);
  }
}

TEST(BeaconPeers, EvictedSpillWindowIsReusedWithoutStaleStamps) {
  StubContext ctx;
  const double timeout_s = 3.0;
  ScheduledStation station(beacon_config(/*readopt=*/true, timeout_s),
                           table({1}));
  station.on_start(ctx);
  const std::uint64_t wake = ctx.cookies.front();
  // Neighbour 1 fills a whole window, spill included, then falls silent.
  for (int k = 0; k < 9; ++k) hear(station, ctx, 1, 0.5 + 0.25 * k, sent_at(k));
  ASSERT_EQ(station.spill_windows(), 1U);
  ctx.now_s = 6.0;
  station.on_timer(ctx, wake);
  ASSERT_EQ(station.neighbors().find(1), nullptr);
  EXPECT_EQ(station.free_spill_windows(), 1U);

  // A stranger's third stamp takes the freed window, whose old stamps must
  // never reach its fit.
  std::vector<ClockSample> heard;
  hear(station, ctx, 9, 6.25, sent_at(23));
  heard.push_back(stamp(6.25, sent_at(23)));
  for (int k = 24; k < 34; ++k) {
    hear_and_check(station, ctx, 9, k, heard);
    EXPECT_EQ(station.spill_windows(), 1U);
    EXPECT_EQ(station.free_spill_windows(), heard.size() < 3 ? 1U : 0U);
  }
}

TEST(BeaconPeers, PeerEvictedWithHeldStampsOnlyFreesNoSpillWindow) {
  StubContext ctx;
  const double timeout_s = 3.0;
  ScheduledStation station(beacon_config(/*readopt=*/false, timeout_s),
                           table({1, 2}));
  station.on_start(ctx);
  const std::uint64_t wake = ctx.cookies.front();
  // 1 is heard twice early, 2 three times late: only 2 spills.
  hear(station, ctx, 1, 0.5, sent_at(0));
  hear(station, ctx, 1, 0.75, sent_at(1));
  for (int k = 17; k < 20; ++k)
    hear(station, ctx, 2, 0.5 + 0.25 * k, sent_at(k));
  ASSERT_EQ(station.spill_windows(), 1U);
  ctx.now_s = 6.0;
  station.on_timer(ctx, wake);
  ASSERT_EQ(station.neighbors().find(1), nullptr);
  ASSERT_NE(station.neighbors().find(2), nullptr);
  EXPECT_EQ(station.free_spill_windows(), 0U);
  EXPECT_EQ(station.spill_windows(), 1U);
}

TEST(BeaconPeers, EvictedPeerIsReadoptedWithAFreshWindow) {
  StubContext ctx;
  const double timeout_s = 3.0;
  ScheduledStation station(beacon_config(/*readopt=*/true, timeout_s),
                           table({1, 2}));
  station.on_start(ctx);
  ASSERT_FALSE(ctx.cookies.empty());
  const std::uint64_t wake = ctx.cookies.front();  // the beacon-due wakeup
  for (int k = 0; k < 5; ++k) {
    hear(station, ctx, 1, 0.5 + 0.25 * k, sent_at(k));
    hear(station, ctx, 2, 0.5 + 0.25 * k, sent_at(k));
  }
  ASSERT_EQ(station.clock_samples_from(1), 5U);

  // Station 1 falls silent; 2 keeps beaconing. The wakeup's sweep evicts 1.
  for (int k = 5; k < 20; ++k) hear(station, ctx, 2, 0.5 + 0.25 * k, sent_at(k));
  ctx.now_s = 6.0;
  station.on_timer(ctx, wake);
  EXPECT_EQ(station.neighbors().find(1), nullptr);
  EXPECT_EQ(station.clock_samples_from(1), 0U);
  EXPECT_EQ(station.beacon_peer_count(), 1U);

  // Its first beacon back starts a fresh window, not the old five stamps.
  hear(station, ctx, 1, 7.0, sent_at(30));
  EXPECT_EQ(station.clock_samples_from(1), 1U);
  EXPECT_EQ(station.neighbors().find(1), nullptr);
  hear(station, ctx, 1, 7.25, sent_at(31));
  EXPECT_EQ(station.clock_samples_from(1), 2U);
  const Neighbor* back = station.neighbors().find(1);
  ASSERT_NE(back, nullptr);
  const std::vector<ClockSample> fresh = {stamp(7.0, sent_at(30)),
                                          stamp(7.25, sent_at(31))};
  expect_same_bits(back->clock, ClockModel::fit(fresh));
  // Re-adopted at the end of the table.
  EXPECT_EQ(station.neighbors().all().back().id, 1U);
}

TEST(BeaconPeers, EvictionInTheMiddleKeepsOtherPeersOnTheirEntries) {
  StubContext ctx;
  const double timeout_s = 3.0;
  ScheduledStation station(beacon_config(/*readopt=*/false, timeout_s),
                           table({1, 2, 3}));
  station.on_start(ctx);
  const std::uint64_t wake = ctx.cookies.front();
  for (int k = 0; k < 4; ++k) {
    for (const StationId from : {1U, 2U, 3U})
      hear(station, ctx, from, 0.5 + 0.25 * k, sent_at(k));
  }
  // 2 falls silent and is evicted from the middle of the table.
  for (int k = 4; k < 20; ++k) {
    hear(station, ctx, 1, 0.5 + 0.25 * k, sent_at(k));
    hear(station, ctx, 3, 0.5 + 0.25 * k, sent_at(k));
  }
  ctx.now_s = 6.0;
  station.on_timer(ctx, wake);
  ASSERT_EQ(station.neighbors().find(2), nullptr);
  ASSERT_EQ(station.neighbors().size(), 2U);

  // A beacon from 3 with a new signal level must update 3's entry (now one
  // position earlier), and nobody else's.
  hear(station, ctx, 3, 6.25, sent_at(20), /*signal_w=*/4.0e-8);
  EXPECT_DOUBLE_EQ(station.neighbors().find(3)->gain, 4.0e-8 / 1.0e-4);
  EXPECT_DOUBLE_EQ(station.neighbors().find(1)->gain, 1.0e-8 / 1.0e-4);
}

}  // namespace
}  // namespace drn::core
