#include "core/discovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/expects.hpp"
#include "geo/placement.hpp"
#include "radio/propagation.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

namespace drn::core {
namespace {

radio::ReceptionCriterion criterion() {
  return radio::ReceptionCriterion(radio::Hertz{200.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{5.0});
}

DiscoveryConfig discovery_config() {
  DiscoveryConfig cfg;
  cfg.beacon_count = 6;
  cfg.duration_s = 5.0;
  cfg.gain_noise_db = 0.0;  // exact measurements for the unit tests
  return cfg;
}

TEST(Discovery, TwoStationsLearnEachOther) {
  radio::PropagationMatrix gains(2);
  gains.set_gain(0, 1, radio::LinearGain{2.5e-5});  // 200 m in free space

  sim::SimulatorConfig sc{criterion()};
  sim::Simulator sim(gains, sc);
  const StationClock c0(Seconds{100.0}, 1.0 + 10e-6);
  const StationClock c1(Seconds{5000.0}, 1.0 - 10e-6);
  auto m0 = std::make_unique<DiscoveryStation>(discovery_config(), c0);
  auto m1 = std::make_unique<DiscoveryStation>(discovery_config(), c1);
  auto* p0 = m0.get();
  auto* p1 = m1.get();
  sim.set_mac(0, std::move(m0));
  sim.set_mac(1, std::move(m1));
  sim.run_until(6.0);

  // Each heard all 6 beacons of the other (no contention in a 2-station
  // network unless beacons overlap, which the stratification makes rare).
  ASSERT_TRUE(p0->observations().contains(1));
  ASSERT_TRUE(p1->observations().contains(0));
  const auto& obs = p0->observations().at(1);
  EXPECT_GE(obs.clock_samples.size(), 4u);
  EXPECT_NEAR(obs.gain.mean(), 2.5e-5, 1e-12);  // exact measurement

  // The fitted clock model predicts the neighbour's clock to microseconds.
  const auto table = p0->build_neighbor_table(0.0);
  ASSERT_NE(table.find(1), nullptr);
  const ClockModel& model = table.find(1)->clock;
  const double g = 30.0;  // 25 s after the last beacon
  EXPECT_NEAR(model.map(c0.local(Seconds{g}).value()),
              c1.local(Seconds{g}).value(), 5.0e-5);
}

TEST(Discovery, GainThresholdPrunesWeakNeighbors) {
  radio::PropagationMatrix gains(3);
  gains.set_gain(0, 1, radio::LinearGain{1.0e-5});
  gains.set_gain(0, 2, radio::LinearGain{1.0e-9});
  gains.set_gain(1, 2, radio::LinearGain{1.0e-9});

  sim::SimulatorConfig sc{criterion()};
  sim::Simulator sim(gains, sc);
  std::vector<DiscoveryStation*> st;
  Rng rng(3);
  for (StationId s = 0; s < 3; ++s) {
    auto mac = std::make_unique<DiscoveryStation>(
        discovery_config(), StationClock::random(rng, Seconds{1000.0}, 10.0));
    st.push_back(mac.get());
    sim.set_mac(s, std::move(mac));
  }
  sim.run_until(6.0);

  const auto table = st[0]->build_neighbor_table(/*min_gain=*/1.0e-6);
  EXPECT_NE(table.find(1), nullptr);
  EXPECT_EQ(table.find(2), nullptr);  // heard, but below the usable floor
  EXPECT_TRUE(st[0]->observations().contains(2));
}

TEST(Discovery, MeasurementNoiseAveragesOut) {
  radio::PropagationMatrix gains(2);
  gains.set_gain(0, 1, radio::LinearGain{1.0e-5});
  sim::SimulatorConfig sc{criterion()};
  sim::Simulator sim(gains, sc);
  auto cfg = discovery_config();
  cfg.gain_noise_db = 1.0;
  cfg.beacon_count = 40;
  cfg.duration_s = 30.0;
  auto m0 = std::make_unique<DiscoveryStation>(cfg, StationClock(Seconds{1.0}));
  auto* p0 = m0.get();
  sim.set_mac(0, std::move(m0));
  sim.set_mac(1, std::make_unique<DiscoveryStation>(cfg, StationClock(Seconds{777.0})));
  sim.run_until(31.0);
  const auto& obs = p0->observations().at(1);
  EXPECT_GE(obs.gain.count(), 30u);
  // Mean of 1 dB log-normal noise: within ~1 dB of truth.
  EXPECT_NEAR(10.0 * std::log10(obs.gain.mean() / 1.0e-5), 0.0, 1.0);
}

TEST(Discovery, DiscoverAndBuildMatchesTruthClosely) {
  Rng rng(11);
  const auto placement = geo::uniform_disc(12, 300.0, rng);
  const radio::FreeSpacePropagation model;
  const auto gains = radio::PropagationMatrix::from_placement(placement, model);

  ScheduledNetworkConfig net_cfg;
  net_cfg.target_received_w = 1.0e-9;
  net_cfg.max_power_w = 1.6e-4;  // reach 400 m
  Rng build_rng(12);
  auto net = discover_and_build(gains, criterion(), net_cfg,
                                discovery_config(), build_rng);

  ASSERT_EQ(net.macs.size(), 12u);
  // Discovered neighbourhoods are (near-)complete: every true neighbour
  // within reach should have been heard several times.
  const double min_gain = net_cfg.target_received_w / net_cfg.max_power_w;
  std::size_t true_links = 0;
  std::size_t found_links = 0;
  for (StationId a = 0; a < 12; ++a) {
    for (StationId b = 0; b < 12; ++b) {
      if (a == b || gains.gain(a, b) < min_gain) continue;
      ++true_links;
      const auto& nbrs = net.neighbors[a];
      if (std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end()) ++found_links;
    }
  }
  ASSERT_GT(true_links, 0u);
  EXPECT_GE(found_links * 10, true_links * 9);  // >= 90% discovered
}

TEST(Discovery, DiscoveredNetworkCarriesTrafficCollisionFree) {
  // The acid test: a network assembled ONLY from what stations heard runs
  // the scheme collision-free.
  Rng rng(21);
  const auto placement = geo::uniform_disc(12, 300.0, rng);
  const radio::FreeSpacePropagation model;
  const auto gains = radio::PropagationMatrix::from_placement(placement, model);

  ScheduledNetworkConfig net_cfg;
  net_cfg.target_received_w = 1.0e-9;
  net_cfg.max_power_w = 1.6e-4;
  Rng build_rng(22);
  auto net = discover_and_build(gains, criterion(), net_cfg,
                                discovery_config(), build_rng);

  sim::SimulatorConfig sc{criterion()};
  sim::Simulator sim(gains, sc);
  for (StationId s = 0; s < 12; ++s) sim.set_mac(s, std::move(net.macs[s]));

  Rng traffic_rng(23);
  const auto traffic = sim::poisson_traffic(
      100.0, 1.0, net.packet_bits, sim::neighbor_pairs(net.neighbors),
      traffic_rng);
  for (const auto& inj : traffic) sim.inject(inj.time_s, inj.packet);
  sim.run_until(30.0);

  EXPECT_EQ(sim.metrics().delivered(), sim.metrics().offered());
  EXPECT_EQ(sim.metrics().losses(sim::LossType::kType2), 0u);
  EXPECT_EQ(sim.metrics().losses(sim::LossType::kType3), 0u);
}

TEST(Discovery, DiscoveredStationsCarryTheNetworkConfig) {
  // A discovered network is configured like a ground-truth one: the beacon
  // block, neighbour timeout and re-adoption reach every station.
  Rng rng(31);
  const auto placement = geo::uniform_disc(8, 300.0, rng);
  const radio::FreeSpacePropagation model;
  const auto gains = radio::PropagationMatrix::from_placement(placement, model);

  ScheduledNetworkConfig net_cfg;
  net_cfg.target_received_w = 1.0e-9;
  net_cfg.max_power_w = 1.6e-4;
  net_cfg.beacon_interval_s = 0.5;
  net_cfg.neighbor_timeout_s = 3.0;
  net_cfg.readopt_neighbors = true;
  Rng build_rng(32);
  const auto net = discover_and_build(gains, criterion(), net_cfg,
                                      discovery_config(), build_rng);

  ASSERT_EQ(net.macs.size(), 8u);
  for (const auto& mac : net.macs) {
    const ScheduledStationConfig& sc = mac->config();
    EXPECT_EQ(sc.beacon_interval_s, net_cfg.beacon_interval_s);
    EXPECT_EQ(sc.beacon_bits, kBeaconBits);
    EXPECT_EQ(sc.neighbor_timeout_s, net_cfg.neighbor_timeout_s);
    EXPECT_TRUE(sc.readopt_neighbors);
    EXPECT_EQ(sc.data_rate_bps, criterion().data_rate_bps());
  }
}

TEST(Discovery, ClockModelsHoldWhenDiscoveryRateDiffersFromDesignRate) {
  // Beacons air at a quarter of the criterion's rate. Receivers correct each
  // stamp by the airtime at the rate the beacon actually aired at, so the
  // fitted models track the true clock relation to within the guard.
  Rng rng(51);
  const auto placement = geo::uniform_disc(8, 300.0, rng);
  const radio::FreeSpacePropagation model;
  const auto gains = radio::PropagationMatrix::from_placement(placement, model);

  ScheduledNetworkConfig net_cfg;
  net_cfg.target_received_w = 1.0e-9;
  net_cfg.max_power_w = 1.6e-4;
  DiscoveryConfig disc = discovery_config();
  disc.data_rate_bps = 2.5e5;
  ASSERT_NE(disc.data_rate_bps, criterion().data_rate_bps());
  Rng build_rng(52);
  const auto net =
      discover_and_build(gains, criterion(), net_cfg, disc, build_rng);

  const double guard_s = net_cfg.guard_fraction * net_cfg.slot_s;
  std::size_t links = 0;
  for (StationId a = 0; a < net.macs.size(); ++a) {
    for (const Neighbor& n : net.macs[a]->neighbors().all()) {
      const ClockModel truth =
          ClockModel::exact(net.clocks[a], net.clocks[n.id]);
      for (const double t : {0.0, 5.0, 30.0}) {
        const double mine = net.clocks[a].local(Seconds{t}).value();
        EXPECT_NEAR(n.clock.map(mine), truth.map(mine), guard_s);
      }
      ++links;
    }
  }
  EXPECT_GT(links, 0u);
}

TEST(Discovery, DenseNetworkSurvivesBeaconContention) {
  // 30 stations beaconing into the same disc: some beacons collide (they
  // are unscheduled), but enough get through that neighbourhoods are still
  // discovered nearly completely — the redundancy of several beacons per
  // station is the point.
  Rng rng(41);
  const auto placement = geo::uniform_disc(30, 400.0, rng);
  const radio::FreeSpacePropagation model;
  const auto gains = radio::PropagationMatrix::from_placement(placement, model);

  sim::SimulatorConfig sc{criterion()};
  sim::Simulator sim(gains, sc);
  auto cfg = discovery_config();
  cfg.beacon_count = 8;
  cfg.duration_s = 8.0;
  std::vector<DiscoveryStation*> st;
  Rng clock_rng(42);
  for (StationId s = 0; s < 30; ++s) {
    auto mac = std::make_unique<DiscoveryStation>(
        cfg, StationClock::random(clock_rng, Seconds{1000.0}, 10.0));
    st.push_back(mac.get());
    sim.set_mac(s, std::move(mac));
  }
  sim.run_until(9.0);

  // Beacons were actually lost to contention...
  EXPECT_LT(sim.metrics().broadcast_receptions(), 30u * 8u * 29u);
  // ...yet discovery of in-range neighbours is still (near-)complete.
  const double min_gain = 6.25e-6;  // reach 400 m
  std::size_t true_links = 0;
  std::size_t found = 0;
  for (StationId a = 0; a < 30; ++a) {
    const auto table = st[a]->build_neighbor_table(min_gain);
    for (StationId b = 0; b < 30; ++b) {
      if (a == b || gains.gain(a, b) < min_gain) continue;
      ++true_links;
      if (table.find(b) != nullptr) ++found;
    }
  }
  ASSERT_GT(true_links, 100u);
  EXPECT_GE(found * 100, true_links * 95);  // >= 95% discovered
}

TEST(Discovery, ConfigContracts) {
  DiscoveryConfig cfg = discovery_config();
  cfg.beacon_count = 0;
  EXPECT_THROW(DiscoveryStation(cfg, StationClock()), ContractViolation);
  cfg = discovery_config();
  cfg.duration_s = 0.0;
  EXPECT_THROW(DiscoveryStation(cfg, StationClock()), ContractViolation);
  cfg = discovery_config();
  // Phase too short to fit the beacons.
  cfg.beacon_count = 1000;
  cfg.duration_s = 0.5;
  EXPECT_THROW(DiscoveryStation(cfg, StationClock()), ContractViolation);
}

}  // namespace
}  // namespace drn::core
