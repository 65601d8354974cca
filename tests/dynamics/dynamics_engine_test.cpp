#include "dynamics/dynamics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/network_builder.hpp"
#include "core/scheduled_station.hpp"
#include "geo/placement.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation.hpp"
#include "radio/reception.hpp"
#include "sim/simulator.hpp"
#include "helpers/scenario.hpp"
#include "runner/scenario.hpp"
#include "helpers/test_macs.hpp"

namespace drn::dynamics {
namespace {

sim::SimulatorConfig tiny_config(std::uint64_t seed = 1) {
  sim::SimulatorConfig cfg{radio::ReceptionCriterion(radio::Hertz{200.0e6}, radio::BitsPerSecond{1.0e6}, radio::Decibels{5.0})};
  cfg.thermal_noise_w = 1.0e-15;
  cfg.seed = seed;
  return cfg;
}

geo::Placement ring(std::size_t n, double radius_m) {
  geo::Placement p;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = 2.0 * 3.14159265358979323846 * static_cast<double>(i) /
                     static_cast<double>(n);
    p.push_back({radius_m * std::cos(a), radius_m * std::sin(a)});
  }
  return p;
}

/// Counts clock-rate change notifications (the drift-ramp delivery path).
class DriftProbe final : public sim::MacProtocol {
 public:
  void on_enqueue(sim::MacContext& ctx, const sim::Packet& pkt,
                  StationId /*next_hop*/) override {
    ctx.drop(pkt);
  }
  void on_clock_rate_changed(sim::MacContext& /*ctx*/,
                             double /*delta_ppm*/) override {
    ++changes;
  }
  int changes = 0;
};

struct IdleSim {
  std::unique_ptr<sim::Simulator> sim;
  geo::Placement placement;
};

/// With `mobility`, the engine gets the geometry to recompute gains from.
IdleSim idle_sim(std::size_t n, bool mobility = false) {
  IdleSim s;
  s.placement = ring(n, 200.0);
  const auto model = std::make_shared<radio::FreeSpacePropagation>();
  auto engine = radio::make_compensated_engine(
      radio::make_dense_gains(s.placement, *model));
  if (mobility)
    engine->enable_mobility(s.placement, model, radio::LinearGain{1.0});
  s.sim = std::make_unique<sim::Simulator>(std::move(engine), tiny_config(1));
  for (StationId i = 0; i < n; ++i)
    s.sim->set_mac(i, std::make_unique<testing::IdleMac>());
  return s;
}

TEST(DynamicsEngine, ChurnLeavesAndRejoinsBookBalance) {
  auto s = idle_sim(6);
  DynamicsConfig dc;
  dc.churn_rate_per_s = 2.0;
  dc.mean_downtime_s = 0.5;
  DynamicsEngine engine(
      dc, *s.sim, s.placement, 6,
      [](StationId) { return std::make_unique<testing::IdleMac>(); }, Rng(3));
  engine.run(20.0);
  const auto& m = s.sim->metrics();
  EXPECT_GT(m.station_leaves(), 10u);
  EXPECT_GT(m.station_joins(), 0u);
  EXPECT_LE(m.station_joins(), m.station_leaves());
  EXPECT_EQ(m.station_leaves() - m.station_joins(), engine.stations_down());
  // Every station still down is genuinely inactive, everyone else is up.
  std::size_t down = 0;
  for (StationId i = 0; i < 6; ++i)
    if (!s.sim->station_active(i)) ++down;
  EXPECT_EQ(down, engine.stations_down());
}

TEST(DynamicsEngine, TimelineIsDeterministicInSeed) {
  auto run_once = [] {
    auto s = idle_sim(6, /*mobility=*/true);
    DynamicsConfig dc;
    dc.churn_rate_per_s = 1.5;
    dc.mean_downtime_s = 0.7;
    dc.mobility_speed_mps = 2.0;
    dc.mobility_step_s = 0.25;
    dc.mobility_region_m = 250.0;
    DynamicsEngine engine(
        dc, *s.sim, s.placement, 6,
        [](StationId) { return std::make_unique<testing::IdleMac>(); },
        Rng(11));
    engine.run(15.0);
    return std::tuple{s.sim->metrics().station_leaves(),
                      s.sim->metrics().station_joins(),
                      engine.moves_applied(), engine.moves_deferred()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(DynamicsEngine, ScriptedMobilityChangesEngineGains) {
  auto s = idle_sim(3, /*mobility=*/true);
  DynamicsConfig dc;
  dc.mobility_speed_mps = 1.0;  // enables mobility; the model below overrides
  dc.mobility_step_s = 0.5;
  dc.mobility_region_m = 400.0;
  DynamicsEngine engine(dc, *s.sim, s.placement, 3, nullptr, Rng(5));
  // Walk station 0 to the far side of the ring: its gain to station 1 drops.
  auto path = std::make_unique<ScriptedPath>(s.placement);
  path->add_keyframe(0, 5.0, s.placement[0] + geo::Vec2{350.0, 0.0});
  engine.set_mobility_model(std::move(path));

  const double gain_before = s.sim->engine().gain(1, 0);
  engine.run(10.0);
  const double gain_after = s.sim->engine().gain(1, 0);
  EXPECT_GT(engine.moves_applied(), 0u);
  EXPECT_LT(gain_after, gain_before);
  // Gain matrices stay reciprocal after recomputation.
  EXPECT_EQ(s.sim->engine().gain(1, 0), s.sim->engine().gain(0, 1));
}

TEST(DynamicsEngine, DriftRampsReachTheMac) {
  geo::Placement placement = ring(3, 200.0);
  const radio::FreeSpacePropagation model;
  sim::Simulator sim(radio::make_dense_gains(placement, model), tiny_config());
  std::vector<DriftProbe*> probes;
  for (StationId i = 0; i < 3; ++i) {
    auto probe = std::make_unique<DriftProbe>();
    probes.push_back(probe.get());
    sim.set_mac(i, std::move(probe));
  }
  DynamicsConfig dc;
  dc.drift_ppm_per_s = 5.0;
  dc.drift_step_s = 0.5;
  DynamicsEngine engine(dc, sim, placement, 3, nullptr, Rng(8));
  engine.run(5.0);
  for (const DriftProbe* probe : probes) EXPECT_GE(probe->changes, 8);
}

// -- scheme-level churn behaviour: re-discovery and ghost eviction ----------

struct SchemeChurnRig {
  runner::Scenario scenario;
  std::unique_ptr<sim::Simulator> sim;
  std::vector<core::ScheduledStation*> macs;  // borrowed; sim owns them
  std::vector<core::ScheduledStationConfig> cfgs;
  std::vector<core::NeighborTable> tables;
};

/// A beacon-enabled scheduled network with every MAC installed and a config
/// + neighbour-table snapshot taken for warm reboots.
SchemeChurnRig scheme_rig(double beacon_s, double timeout_s) {
  core::ScheduledNetworkConfig net;
  net.max_power_w = 1.0e-3;  // keep the small disc connected
  net.beacon_interval_s = beacon_s;
  net.neighbor_timeout_s = timeout_s;
  net.readopt_neighbors = true;
  SchemeChurnRig rig{
      runner::make_scenario({.stations = 10, .region_m = 500.0, .net = net},
                            77),
      {}, {}, {}, {}};
  sim::SimulatorConfig cfg{runner::scheme_criterion()};
  cfg.seed = 77;
  rig.sim = std::make_unique<sim::Simulator>(rig.scenario.gains, cfg);
  for (const auto& mac : rig.scenario.net.macs) {
    rig.cfgs.push_back(mac->config());
    rig.tables.push_back(mac->neighbors());
  }
  for (StationId s = 0; s < rig.scenario.gains.size(); ++s) {
    rig.macs.push_back(rig.scenario.net.macs[s].get());
    rig.sim->set_mac(s, std::move(rig.scenario.net.macs[s]));
  }
  return rig;
}

/// A station with at least two direct neighbours (so re-discovery has
/// something to find).
StationId pick_victim(const SchemeChurnRig& rig) {
  for (StationId s = 0; s < rig.cfgs.size(); ++s)
    if (rig.tables[s].size() >= 2) return s;
  ADD_FAILURE() << "no station with 2+ neighbours in the rig";
  return 0;
}

TEST(SchemeChurn, RejoiningStationRefitsClocksWithinBoundedBeaconPeriods) {
  const double beacon_s = 0.5;
  auto rig = scheme_rig(beacon_s, 30.0);
  const StationId victim = pick_victim(rig);

  rig.sim->run_until(2.0);
  rig.sim->deactivate_station(victim);
  rig.sim->run_until(4.0);
  auto fresh = std::make_unique<core::ScheduledStation>(rig.cfgs[victim],
                                                        rig.tables[victim]);
  core::ScheduledStation* returned = fresh.get();
  rig.sim->activate_station(victim, std::move(fresh));

  // Within 12 beacon periods the returnee must have heard enough beacons to
  // re-fit a clock model (>= 2 samples) for at least one neighbour — the
  // paper's Section 3.5 re-acquisition claim, bounded.
  rig.sim->run_until(4.0 + 12.0 * beacon_s);
  bool refit = false;
  for (const auto& n : returned->neighbors().all())
    if (returned->clock_samples_from(n.id) >= 2) refit = true;
  EXPECT_TRUE(refit) << "station " << victim
                     << " heard no usable beacons after rejoining";
  EXPECT_EQ(rig.sim->metrics().station_joins(), 1u);
}

TEST(SchemeChurn, NeighborsOfReturneeHearItAgain) {
  const double beacon_s = 0.5;
  auto rig = scheme_rig(beacon_s, 30.0);
  const StationId victim = pick_victim(rig);
  const StationId buddy = rig.tables[victim].all().front().id;

  rig.sim->run_until(2.0);
  const std::size_t samples_at_crash =
      rig.macs[buddy]->clock_samples_from(victim);
  rig.sim->deactivate_station(victim);
  rig.sim->run_until(4.0);
  rig.sim->activate_station(
      victim, std::make_unique<core::ScheduledStation>(rig.cfgs[victim],
                                                       rig.tables[victim]));
  rig.sim->run_until(4.0 + 12.0 * beacon_s);
  // The buddy keeps fitting the returnee's beacons: new samples arrived.
  EXPECT_GT(rig.macs[buddy]->clock_samples_from(victim), samples_at_crash);
}

TEST(SchemeChurn, StaleNeighborsOfCrashedStationAreEvicted) {
  const double beacon_s = 0.5;
  const double timeout_s = 3.0;
  auto rig = scheme_rig(beacon_s, timeout_s);
  const StationId victim = pick_victim(rig);

  rig.sim->run_until(2.0);
  rig.sim->deactivate_station(victim);
  // No ghost lingers: after well past the timeout every survivor that knew
  // the victim has evicted it (and therefore routes nothing to it).
  rig.sim->run_until(2.0 + 4.0 * timeout_s);
  for (StationId s = 0; s < rig.cfgs.size(); ++s) {
    if (s == victim) continue;
    EXPECT_EQ(rig.macs[s]->neighbors().find(victim), nullptr)
        << "station " << s << " still lists crashed station " << victim;
  }
}

}  // namespace
}  // namespace drn::dynamics
