#include "runner/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "common/expects.hpp"
#include "baselines/aloha.hpp"
#include "baselines/csma.hpp"
#include "baselines/maca.hpp"
#include "baselines/slotted_aloha.hpp"
#include "radio/propagation.hpp"
#include "sim/traffic.hpp"

namespace drn::runner {

namespace {

// The trial rules make_baseline_mac and make_scenario document.
constexpr double kBaselinePowerW = 1.0e-4;
constexpr int kBaselineMaxRetries = 6;
constexpr double kCsmaSenseTargets = 2.5;
constexpr double kMaintenanceBeaconS = 0.5;
constexpr double kTimeoutIntervals = 12.0;

/// spec.net with the maintenance-beacon rule applied.
core::ScheduledNetworkConfig trial_network_config(const ScenarioSpec& spec) {
  core::ScheduledNetworkConfig net = spec.net;
  const dynamics::DynamicsConfig& dyn = spec.dynamics;
  if (spec.mac != MacKind::kScheme) return net;
  if ((dyn.churn_enabled() || dyn.drift_enabled()) &&
      net.beacon_interval_s <= 0.0)
    net.beacon_interval_s = kMaintenanceBeaconS;
  if (dyn.churn_enabled() && net.neighbor_timeout_s <= 0.0) {
    net.neighbor_timeout_s = kTimeoutIntervals * net.beacon_interval_s;
    net.readopt_neighbors = true;
  }
  return net;
}

}  // namespace

std::optional<MacKind> parse_mac(std::string_view name) {
  if (name == "scheme") return MacKind::kScheme;
  if (name == "aloha") return MacKind::kAloha;
  if (name == "slotted") return MacKind::kSlottedAloha;
  if (name == "csma") return MacKind::kCsma;
  if (name == "maca") return MacKind::kMaca;
  return std::nullopt;
}

std::string_view mac_name(MacKind mac) {
  switch (mac) {
    case MacKind::kScheme: return "scheme";
    case MacKind::kAloha: return "aloha";
    case MacKind::kSlottedAloha: return "slotted";
    case MacKind::kCsma: return "csma";
    case MacKind::kMaca: return "maca";
  }
  return "?";
}

radio::ReceptionCriterion scheme_criterion() {
  return ScenarioSpec{}.criterion();
}

core::ScheduledNetworkConfig multihop_config() {
  core::ScheduledNetworkConfig cfg;
  cfg.max_power_w = 1.6e-4;
  return cfg;
}

std::shared_ptr<const radio::PropagationModel> propagation_model(
    const ScenarioSpec& spec, std::uint64_t seed) {
  std::shared_ptr<const radio::PropagationModel> model;
  if (spec.dual_slope_breakpoint_m > 0.0) {
    model = std::make_shared<radio::DualSlopePropagation>(
        radio::Meters{spec.dual_slope_breakpoint_m});
  } else {
    model = std::make_shared<radio::FreeSpacePropagation>();
  }
  if (spec.shadowing_db > 0.0) {
    model = std::make_shared<radio::LogNormalShadowing>(
        model, radio::Decibels{spec.shadowing_db}, seed ^ 0x5AD0ull);
  }
  return model;
}

Scenario make_scenario(const ScenarioSpec& spec, std::uint64_t seed,
                       bool* connected) {
  Rng rng(seed);
  auto placement = geo::uniform_disc(spec.stations, spec.region_m, rng);
  auto gains =
      radio::make_dense_gains(placement, *propagation_model(spec, seed));
  Rng build_rng = rng.split(1);
  auto net = core::build_scheduled_network(
      gains, spec.criterion(), trial_network_config(spec), build_rng);
  // Routing runs over the scheduled network's neighbours: one reach rule,
  // one pair scan, and MAC neighbours equal routing edges.
  const auto graph = routing::Graph::min_energy(net.neighbors, gains);
  if (connected) *connected = graph.connected();
  auto tables = routing::RoutingTables::build(graph);
  return Scenario{std::move(placement), std::move(gains), std::move(net),
                  std::move(tables)};
}

TrialResult summarize(const sim::Metrics& m, double total_duration_s) {
  TrialResult r;
  r.offered = m.offered();
  r.delivered = m.delivered();
  r.hop_attempts = m.hop_attempts();
  r.hop_successes = m.hop_successes();
  r.type1_losses = m.losses(sim::LossType::kType1);
  r.type2_losses = m.losses(sim::LossType::kType2);
  r.type3_losses = m.losses(sim::LossType::kType3);
  r.mac_drops = m.mac_drops();
  r.delivery_ratio = m.delivery_ratio();
  r.mean_delay_s = m.delivered() > 0 ? m.delay().mean() : 0.0;
  r.mean_hops = m.delivered() > 0 ? m.hops().mean() : 0.0;
  r.tx_per_hop = m.hop_successes() > 0
                     ? static_cast<double>(m.hop_attempts()) /
                           static_cast<double>(m.hop_successes())
                     : 0.0;
  r.mean_duty = m.mean_duty_cycle(total_duration_s);
  r.aborted_losses = m.losses(sim::LossType::kAborted);
  r.station_leaves = m.station_leaves();
  r.station_joins = m.station_joins();
  r.churn_drops = m.churn_drops();
  r.noise_bursts = m.noise_bursts();
  r.recoveries = m.recovery_s().count();
  r.mean_recovery_s = m.recovery_s().count() > 0 ? m.recovery_s().mean() : 0.0;
  return r;
}

std::unique_ptr<sim::MacProtocol> make_baseline_mac(const ScenarioSpec& spec) {
  const baselines::ContentionConfig cc{.power_w = kBaselinePowerW,
                                       .max_retries = kBaselineMaxRetries,
                                       .backoff_mean_s = spec.net.slot_s};
  switch (spec.mac) {
    case MacKind::kScheme:
      break;  // scheme MACs come from the network builder, not here
    case MacKind::kAloha:
      return std::make_unique<baselines::PureAloha>(cc);
    case MacKind::kSlottedAloha:
      return std::make_unique<baselines::SlottedAloha>(cc,
                                                       spec.net.slot_s / 4.0);
    case MacKind::kCsma:
      return std::make_unique<baselines::CsmaMac>(
          cc, kCsmaSenseTargets * spec.net.target_received_w);
    case MacKind::kMaca:
      return std::make_unique<baselines::MacaMac>(
          baselines::MacaConfig{.power_w = cc.power_w,
                                .data_rate_bps = spec.data_rate_bps,
                                .max_retries = cc.max_retries,
                                .backoff_mean_s = cc.backoff_mean_s});
  }
  DRN_EXPECTS(false);  // make_baseline_mac(kScheme)
  return nullptr;
}

void install_macs(sim::Simulator& sim, Scenario& scenario,
                  const ScenarioSpec& spec) {
  const auto stations = scenario.placement.size();
  if (spec.mac == MacKind::kScheme) {
    for (StationId s = 0; s < stations; ++s)
      sim.set_mac(s, std::move(scenario.net.macs[s]));
    return;
  }
  for (StationId s = 0; s < stations; ++s)
    sim.set_mac(s, make_baseline_mac(spec));
}

Trial::Trial(const ScenarioSpec& spec, std::uint64_t seed)
    : spec_(spec),
      seed_(seed),
      scenario_(make_scenario(spec, seed, &connected_)),
      placement_(scenario_.placement) {
  const dynamics::DynamicsConfig& dyn = spec.dynamics;
  // Jammer stations are appended after the real network: they get gains and
  // despreading channels like everyone else, but no traffic, no routes, and
  // the dynamics engine leaves them alone.
  if (dyn.jammer.count > 0) {
    Rng jammer_rng = Rng(seed).split(4);
    placement_ = dynamics::with_jammers(placement_, dyn.jammer.count,
                                        spec.region_m, jammer_rng);
  }
  sim::SimulatorConfig sim_cfg{spec.criterion()};
  sim_cfg.seed = seed;
  sim_cfg.engine = spec.engine;
  const auto model = propagation_model(spec, seed);
  const bool nearfar = spec.engine == radio::InterferenceEngineKind::kNearFar;
  // Only a jammer-free compensated engine reads the M² matrix again, and it
  // adopts it rather than copy M x M gains. Otherwise free the matrix before
  // the engine is built, so it never coexists with the run (nor with the
  // jammer engine's own (M+J)² matrix).
  if (nearfar || dyn.jammer.count > 0) {
    const radio::PropagationMatrix released = std::move(scenario_.gains);
  }
  std::unique_ptr<radio::InterferenceEngine> engine;
  if (nearfar) {
    // Lazy near/far evaluation over the same physics the scenario matrix
    // was built from; it carries its own geometry for mobility.
    // The default cutoff is twice the free-space reach of the power budget.
    radio::NearFarConfig nf;
    nf.cutoff = radio::Meters{
        spec.engine_cutoff_m > 0.0
            ? spec.engine_cutoff_m
            : 2.0 / std::sqrt(spec.net.power().min_gain())};
    nf.cell = radio::Meters{spec.engine_cell_m};
    engine = radio::make_nearfar_engine(placement_, model, nf);
  } else {
    engine = radio::make_compensated_engine(
        dyn.jammer.count > 0 ? radio::make_dense_gains(placement_, *model)
                             : std::move(scenario_.gains));
    if (dyn.mobility_enabled())
      engine->enable_mobility(placement_, model, radio::LinearGain{1.0});
  }
  sim_.emplace(std::move(engine), sim_cfg);
  if (spec.audit) {
    auditor_ = std::make_unique<audit::InvariantAuditor>(*sim_);
    sim_->add_observer(auditor_.get());
  }
}

Trial::~Trial() = default;

TrialResult Trial::run() {
  DRN_EXPECTS(!ran_);  // the scheme MACs are consumed by the first run
  ran_ = true;
  const dynamics::DynamicsConfig& dyn = spec_.dynamics;
  sim::Simulator& sim = *sim_;
  // Churn rejoin factory, built from a pre-run snapshot: a scheme station
  // warm-reboots with its flash-stored config and neighbour table (clock
  // models go stale while it is down; beacons re-fit them), a baseline
  // station reboots stateless.
  dynamics::MacFactory rejoin;
  if (dyn.churn_enabled()) {
    if (spec_.mac == MacKind::kScheme) {
      std::vector<core::ScheduledStationConfig> cfgs;
      std::vector<core::NeighborTable> tables;
      cfgs.reserve(scenario_.net.macs.size());
      tables.reserve(scenario_.net.macs.size());
      for (const auto& mac : scenario_.net.macs) {
        cfgs.push_back(mac->config());
        tables.push_back(mac->neighbors());
      }
      rejoin = [cfgs = std::move(cfgs),
                tables = std::move(tables)](StationId s) {
        return std::make_unique<core::ScheduledStation>(cfgs[s], tables[s]);
      };
    } else {
      rejoin = [spec = spec_](StationId) { return make_baseline_mac(spec); };
    }
  }
  install_macs(sim, scenario_, spec_);
  if (dyn.jammer.count > 0)
    dynamics::install_jammers(sim, spec_.stations, dyn.jammer);
  sim.set_router(scenario_.tables.router());
  Rng traffic_rng = Rng(seed_).split(2);
  for (const auto& inj : sim::poisson_traffic(
           spec_.rate_pps, spec_.duration_s, scenario_.net.packet_bits,
           sim::uniform_pairs(spec_.stations), traffic_rng))
    sim.inject(inj.time_s, inj.packet);
  const double total = spec_.duration_s + spec_.drain_s;
  std::optional<dynamics::DynamicsEngine> driver;
  if (dyn.enabled()) {
    dynamics::DynamicsConfig dc = dyn;
    if (dc.mobility_enabled() && dc.mobility_region_m <= 0.0)
      dc.mobility_region_m = spec_.region_m;
    driver.emplace(dc, sim, placement_, spec_.stations, std::move(rejoin),
                   Rng(seed_).split(3));
    driver->run(total);
  } else {
    sim.run_until(total);
  }
  TrialResult result = summarize(sim.metrics(), total);
  const auto qs = sim.queue_stats();
  result.events_processed = qs.events_processed;
  result.peak_queue_bytes = qs.peak_bytes;
  if (driver) {
    std::vector<double> samples = driver->recovery_samples();
    std::sort(samples.begin(), samples.end());
    result.median_recovery_s =
        samples.empty() ? 0.0 : samples[samples.size() / 2];
  }
  if (auditor_) {
    auditor_->finalize(total);
    auditor_->cross_check(sim.metrics());
    result.audit_checks = auditor_->checks_run();
    result.audit_violations = auditor_->violation_count();
  }
  return result;
}

TrialResult run_trial(const ScenarioSpec& spec, std::uint64_t seed) {
  return Trial(spec, seed).run();
}

}  // namespace drn::runner
