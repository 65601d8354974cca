// Clock-model maintenance (Section 7: "stations occasionally rendezvous and
// exchange clock readings ... small differences in clock rates can be
// mutually modeled"): with drifting clocks and a stale single-point model,
// predictions eventually miss receive windows and collisions reappear; with
// maintenance beacons the models refit continuously and the collision-free
// invariant holds indefinitely.
#include <gtest/gtest.h>

#include <memory>

#include "common/expects.hpp"
#include "core/scheduled_station.hpp"
#include "sim/simulator.hpp"

namespace drn::core {
namespace {

radio::ReceptionCriterion criterion() {
  return radio::ReceptionCriterion(radio::Hertz{200.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{5.0});
}

constexpr double kSlot = 0.01;
constexpr double kAirtime = kSlot / 4.0;
constexpr double kPacketBits = 1.0e6 * kAirtime;
constexpr double kDrift = 100e-6;  // 100 ppm: drifts one guard (~0.2 ms) in 2 s

struct Pair {
  std::unique_ptr<sim::Simulator> sim;
  StationClock c0;
  StationClock c1;
  ScheduledStation* station0 = nullptr;
};

/// Two stations whose initial clock models assume rate 1 exactly (a single-
/// rendezvous fit) while the true clocks drift apart at 200 ppm relative.
std::unique_ptr<Pair> make_pair(double beacon_interval_s) {
  radio::PropagationMatrix m(2);
  m.set_gain(0, 1, radio::LinearGain{1.0e-4});
  sim::SimulatorConfig sc{criterion()};
  auto pair = std::make_unique<Pair>();
  pair->sim = std::make_unique<sim::Simulator>(m, sc);
  pair->c0 = StationClock(Seconds{10.0}, 1.0 + kDrift);
  pair->c1 = StationClock(Seconds{500.0}, 1.0 - kDrift);

  const Schedule schedule(2021, kSlot, 0.3);
  auto make_station = [&](StationId self, const StationClock& mine,
                          const StationClock& theirs) {
    // Single-rendezvous model at t = 0: offset exact, rate assumed 1.
    Neighbor n;
    n.id = self == 0 ? 1 : 0;
    n.gain = 1.0e-4;
    n.clock = ClockModel((theirs.local(Seconds{0.0}) - mine.local(Seconds{0.0})).value(), 1.0);
    NeighborTable table;
    table.add(n);
    ScheduledStationConfig cfg{.schedule = schedule,
                               .clock = mine,
                               .packet_airtime_s = kAirtime,
                               .guard_s = 0.0002,
                               .power = PowerControl::fixed(1.0e-4),
                               .data_rate_bps = 1.0e6,
                               .beacon_interval_s = beacon_interval_s};
    return std::make_unique<ScheduledStation>(cfg, std::move(table));
  };
  auto s0 = make_station(0, pair->c0, pair->c1);
  pair->station0 = s0.get();
  pair->sim->set_mac(0, std::move(s0));
  pair->sim->set_mac(1, make_station(1, pair->c1, pair->c0));
  return pair;
}

sim::Packet packet(StationId src, StationId dst) {
  sim::Packet p;
  p.source = src;
  p.destination = dst;
  p.size_bits = kPacketBits;
  return p;
}

TEST(Maintenance, StaleModelsEventuallyMissWindows) {
  auto pair = make_pair(/*beacon_interval_s=*/0.0);
  // SIMULTANEOUS bidirectional offers for 2 minutes: once the accumulated
  // drift exceeds a slot (~12 ms relative drift per minute at 200 ppm), the
  // stale models are fully decorrelated from the true windows, the mutual
  // transmit-never-overlaps guarantee evaporates, and Type 3 losses appear.
  for (int i = 0; i < 240; ++i) {
    pair->sim->inject(0.5 * i, packet(0, 1));
    pair->sim->inject(0.5 * i, packet(1, 0));
  }
  pair->sim->run_until(180.0);
  EXPECT_GT(pair->sim->metrics().total_hop_losses(), 0u);
  EXPECT_LT(pair->sim->metrics().delivered(), 480u);
}

TEST(Maintenance, BeaconsKeepModelsFreshAndCollisionFree) {
  auto pair = make_pair(/*beacon_interval_s=*/0.5);
  for (int i = 0; i < 240; ++i) {
    pair->sim->inject(0.5 * i, packet(0, 1));
    pair->sim->inject(0.5 * i, packet(1, 0));
  }
  pair->sim->run_until(180.0);
  EXPECT_EQ(pair->sim->metrics().total_hop_losses(), 0u);
  EXPECT_EQ(pair->sim->metrics().delivered(), 480u);
  EXPECT_GT(pair->sim->metrics().broadcasts_sent(), 200u);
  EXPECT_GE(pair->station0->clock_samples_from(1), 2u);
}

TEST(Maintenance, BeaconsRequireDesignRate) {
  const Schedule schedule(1, kSlot, 0.3);
  ScheduledStationConfig cfg{schedule,
                             StationClock(),
                             kAirtime,
                             0.0,
                             PowerControl::fixed(1.0)};
  cfg.beacon_interval_s = 1.0;  // but data_rate_bps left at 0
  EXPECT_THROW(ScheduledStation(cfg, NeighborTable()), ContractViolation);
}

TEST(Maintenance, BeaconRespectsOwnScheduleWindows) {
  // Even the beacons obey the published schedule: run with beacons and audit
  // every broadcast against the sender's true schedule windows.
  class Auditor final : public sim::SimObserver {
   public:
    Auditor(const Schedule& s, const StationClock& c0, const StationClock& c1)
        : schedule_(&s), clocks_{c0, c1} {}
    void on_transmit_start(const sim::TxEvent& tx) override {
      if (tx.to != kBroadcast) return;
      ++beacons_;
      const auto& clock = clocks_[tx.from];
      if (!schedule_->interval_is(clock.local(Seconds{tx.start_s}).value(),
                                  clock.local(Seconds{tx.end_s}).value(),
                                  false))
        ++violations_;
    }
    std::size_t beacons_ = 0;
    std::size_t violations_ = 0;

   private:
    const Schedule* schedule_;
    StationClock clocks_[2];
  };

  auto pair = make_pair(/*beacon_interval_s=*/0.3);
  const Schedule schedule(2021, kSlot, 0.3);
  Auditor auditor(schedule, pair->c0, pair->c1);
  pair->sim->add_observer(&auditor);
  pair->sim->inject(0.0, packet(0, 1));
  pair->sim->run_until(30.0);
  EXPECT_GT(auditor.beacons_, 50u);
  EXPECT_EQ(auditor.violations_, 0u);
}

}  // namespace
}  // namespace drn::core
