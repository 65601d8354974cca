// Declarative scenario assembly + single-trial execution: the one place a
// trial is wired. drn_sim, drn_sweep, the benches and the integration tests
// run whole trials through Trial / run_trial, attaching observers through
// Trial::simulator(); a caller that needs only a network, or that replaces
// what Trial installs, builds it with make_scenario(spec, seed).
//
// A trial is a pure function of (ScenarioSpec, seed): it builds a fresh
// placement, propagation matrix, network and simulator, runs Poisson traffic
// and returns plain-scalar results. No state is shared between trials, which
// is what lets the sweep runner execute them on any thread in any order and
// still produce bit-identical output.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "core/network_builder.hpp"
#include "dynamics/dynamics.hpp"
#include "geo/placement.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation_matrix.hpp"
#include "radio/reception.hpp"
#include "routing/dijkstra.hpp"
#include "routing/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace drn::audit {
class InvariantAuditor;
}

namespace drn::runner {

/// The channel-access schemes a trial can install: the paper's scheduled
/// scheme or one of the Section 2 prior-work baselines.
enum class MacKind : std::uint8_t {
  kScheme,
  kAloha,
  kSlottedAloha,
  kCsma,
  kMaca,
};

/// CLI name <-> enum. parse_mac returns nullopt for unknown names.
[[nodiscard]] std::optional<MacKind> parse_mac(std::string_view name);
[[nodiscard]] std::string_view mac_name(MacKind mac);

/// The Section 6 design point, a default ScenarioSpec's criterion(): 1 Mb/s
/// over 200 MHz spread (23 dB processing gain), 5 dB detection margin.
[[nodiscard]] radio::ReceptionCriterion scheme_criterion();

/// Multihop-flavoured network defaults: a 1.6e-4 W power limit, which
/// reaches ~400 m at ScheduledNetworkConfig's 1 nW delivered power target.
[[nodiscard]] core::ScheduledNetworkConfig multihop_config();

/// A fully assembled network: placement, physics, scheduled-network state
/// and min-energy routing tables (whose trees are built on first use).
struct Scenario {
  geo::Placement placement;
  radio::PropagationMatrix gains;
  core::ScheduledNetwork net;
  routing::RoutingTables tables;
};

/// Everything that defines one experiment point, MAC and workload included.
struct ScenarioSpec {
  std::size_t stations = 40;
  double region_m = 1000.0;
  MacKind mac = MacKind::kScheme;
  /// Aggregate Poisson offer and window.
  double rate_pps = 200.0;
  double duration_s = 2.0;
  double drain_s = 60.0;
  core::ScheduledNetworkConfig net = multihop_config();
  /// Radio design point (criterion() assembles these).
  double bandwidth_hz = 200.0e6;
  double data_rate_bps = 1.0e6;
  double margin_db = 5.0;
  /// Propagation: free space (1/r²) unless dual_slope_breakpoint_m > 0,
  /// which selects the two-ray model (1/r² out to the breakpoint, 1/r⁴
  /// beyond); shadowing_db > 0 adds log-normal shadowing of that sigma,
  /// drawn per station pair from the trial seed.
  double dual_slope_breakpoint_m = 0.0;
  double shadowing_db = 0.0;
  /// Ride an audit::InvariantAuditor along on the trial's simulator and
  /// report its verdict in the result (audit_checks / audit_violations).
  bool audit = false;
  /// Interference accounting engine for the trial's simulator.
  radio::InterferenceEngineKind engine =
      radio::InterferenceEngineKind::kCompensated;
  /// Near/far engine knobs (engine == kNearFar only): cutoff radius inside
  /// which interferers are summed exactly (<= 0 = 2/√net.power().min_gain(),
  /// twice the free-space reach of the power budget) and grid cell side
  /// (<= 0 = cutoff / 4).
  double engine_cutoff_m = 0.0;
  double engine_cell_m = 0.0;
  /// Network dynamics & fault injection (src/dynamics/). All off by default:
  /// a spec with dynamics disabled takes exactly the static trial code path,
  /// draw for draw. A scheme trial under churn or drift gets maintenance
  /// beacons unless net sets them (see make_scenario); jammer stations are
  /// appended after the real network and excluded from traffic, routing and
  /// churn. When mobility is on and mobility_region_m is 0, run_trial fills
  /// it from region_m.
  dynamics::DynamicsConfig dynamics{};

  [[nodiscard]] radio::ReceptionCriterion criterion() const {
    return radio::ReceptionCriterion(radio::Hertz{bandwidth_hz},
                                     radio::BitsPerSecond{data_rate_bps},
                                     radio::Decibels{margin_db});
  }
};

/// Plain-scalar summary of one simulation run — everything the paper's
/// Section 8 table reports, cheap to copy across threads.
struct TrialResult {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t hop_attempts = 0;
  std::uint64_t hop_successes = 0;
  std::uint64_t type1_losses = 0;
  std::uint64_t type2_losses = 0;
  std::uint64_t type3_losses = 0;
  std::uint64_t mac_drops = 0;
  double delivery_ratio = 0.0;
  double mean_delay_s = 0.0;  // 0 when nothing delivered
  double mean_hops = 0.0;     // 0 when nothing delivered
  double tx_per_hop = 0.0;    // attempts / successes; 1.0 = no waste
  double mean_duty = 0.0;     // mean transmit duty cycle
  /// Invariant-audit verdict; both stay 0 unless ScenarioSpec::audit is set.
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;
  /// Dynamics outcome; all zero unless ScenarioSpec::dynamics is enabled.
  std::uint64_t aborted_losses = 0;
  std::uint64_t station_leaves = 0;
  std::uint64_t station_joins = 0;
  std::uint64_t churn_drops = 0;
  std::uint64_t noise_bursts = 0;
  /// Re-convergence after rejoins (seconds to the first delivered unicast
  /// hop involving the returnee); 0 when none was measured.
  std::uint64_t recoveries = 0;
  double mean_recovery_s = 0.0;
  double median_recovery_s = 0.0;
  /// Event-core cost of the trial (Simulator::queue_stats). Perf telemetry
  /// for the bench binaries; deliberately NOT serialized into drn-sweep-v3
  /// documents, whose bytes must not depend on queue internals.
  std::uint64_t events_processed = 0;
  std::uint64_t peak_queue_bytes = 0;

  friend bool operator==(const TrialResult&, const TrialResult&) = default;
};

/// Extracts a TrialResult from a finished simulator's metrics.
[[nodiscard]] TrialResult summarize(const sim::Metrics& m,
                                    double total_duration_s);

/// Installs the spec's MAC at every station of `scenario` into `sim`.
/// Consumes scenario.net.macs for MacKind::kScheme.
void install_macs(sim::Simulator& sim, Scenario& scenario,
                  const ScenarioSpec& spec);

/// A fresh instance of the spec's baseline MAC (spec.mac != kScheme) — what
/// install_macs gives every station, and what a churned baseline station
/// reboots with: a fixed 1e-4 W (no power control), 6 retries, a mean
/// backoff of spec.net.slot_s (slotted ALOHA: slots of slot_s / 4), and CSMA
/// senses carrier at 2.5 x spec.net.target_received_w.
[[nodiscard]] std::unique_ptr<sim::MacProtocol> make_baseline_mac(
    const ScenarioSpec& spec);

/// The propagation model of a trial of `spec` drawn with `seed`.
[[nodiscard]] std::shared_ptr<const radio::PropagationModel> propagation_model(
    const ScenarioSpec& spec, std::uint64_t seed);

/// Builds the scenario for (spec, seed): placement, gains under
/// propagation_model(spec, seed), the scheduled network under
/// spec.criterion() and spec.net, and min-energy routes. `connected`, when
/// given, receives whether the routing graph spans every station. Refuses
/// M > radio::kDenseMatrixGuardM (the gains are a dense matrix).
/// A scheme trial under churn or drift needs maintenance beacons to evict
/// ghosts, re-adopt returnees and re-fit clocks, so what spec.net leaves at
/// 0 is filled in: beacons every 0.5 s and, under churn, a timeout of 12
/// intervals and re-adoption.
[[nodiscard]] Scenario make_scenario(const ScenarioSpec& spec,
                                     std::uint64_t seed,
                                     bool* connected = nullptr);

/// One trial of (spec, seed), fully wired: scenario, simulator (jammers and
/// mobility included) and, when spec.audit is set, an invariant auditor.
/// Construction stops before any MAC, route or packet is installed, so a
/// caller can attach its own observers to simulator() first; run() then
/// installs MACs, jammers, router and traffic, drives the loop (through a
/// dynamics::DynamicsEngine when spec.dynamics is enabled) and summarises.
class Trial {
 public:
  Trial(const ScenarioSpec& spec, std::uint64_t seed);
  ~Trial();
  Trial(const Trial&) = delete;
  Trial& operator=(const Trial&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }

  /// Runs the trial to duration_s + drain_s. Call once.
  TrialResult run();

  /// Whether the min-energy routing graph spans every station.
  [[nodiscard]] bool connected() const { return connected_; }
  /// The routing tables; their trees are built as run() queries them.
  [[nodiscard]] const routing::RoutingTables& tables() const {
    return scenario_.tables;
  }
  /// The scheduled network: schedule, true station clocks and neighbours.
  /// Its MACs move into the simulator when run() installs them.
  [[nodiscard]] const core::ScheduledNetwork& network() const {
    return scenario_.net;
  }
  /// The spec.audit auditor (null otherwise), finalised by run().
  [[nodiscard]] const audit::InvariantAuditor* auditor() const {
    return auditor_.get();
  }

 private:
  ScenarioSpec spec_;
  std::uint64_t seed_;
  bool connected_ = false;
  Scenario scenario_;
  geo::Placement placement_;  // scenario placement plus any jammers
  std::optional<sim::Simulator> sim_;
  std::unique_ptr<audit::InvariantAuditor> auditor_;
  bool ran_ = false;
};

/// Trial(spec, seed).run(): the whole trial, deterministic in its two
/// arguments.
[[nodiscard]] TrialResult run_trial(const ScenarioSpec& spec,
                                    std::uint64_t seed);

}  // namespace drn::runner
