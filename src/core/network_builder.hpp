// Assembly of a complete scheduled-access network: clocks, rendezvous-fitted
// clock models, neighbour tables with Section-7.3 respect flags, power
// control, and one ScheduledStation MAC per station — everything Sections 6-7
// say a self-organising deployment derives locally from the observable
// propagation matrix. The neighbour tables come from one of two sources:
// ground truth (build_scheduled_network, below) or beacons heard over the air
// (discover_and_build, discovery.hpp); assemble_scheduled_network turns
// either into the same running network.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/clock.hpp"
#include "core/neighbor_table.hpp"
#include "core/power_control.hpp"
#include "core/schedule.hpp"
#include "core/scheduled_station.hpp"
#include "radio/propagation_matrix.hpp"
#include "radio/reception.hpp"
#include "sim/mac.hpp"

namespace drn::core {

struct ScheduledNetworkConfig {
  /// Network-wide schedule parameters (Section 7.1-7.2).
  double slot_s = 0.01;
  double receive_fraction = 0.3;
  /// Packet airtime as a fraction of a slot (Section 7.2: one quarter).
  double packet_fraction = 0.25;
  /// Guard as a fraction of a slot, absorbing clock-model error.
  double guard_fraction = 0.02;

  /// Clock drift (Section 7.1) and rendezvous modelling (Section 7).
  double max_drift_ppm = 20.0;
  /// If true, neighbours know each other's clocks exactly (genie rendezvous);
  /// otherwise models are least-squares fits over noisy exchanges.
  bool exact_clock_models = false;
  double rendezvous_noise_s = 1.0e-6;

  /// Power control (Section 6.1): deliver this power to every addressee.
  /// Stations are neighbours iff the target power is reachable, i.e. iff
  /// power().reachable(gain).
  double target_received_w = 1.0e-9;
  double max_power_w = 1.0;
  [[nodiscard]] PowerControl power() const {
    return PowerControl(target_received_w, max_power_w);
  }

  /// Section 7.3: avoid receive windows of third parties whose interference
  /// budget we would consume a significant share of.
  bool respect_third_party_windows = true;

  /// Maintenance beacons + dynamics resilience, copied into every station's
  /// ScheduledStationConfig (see scheduled_station.hpp; queue capacity and
  /// beacon size keep that config's defaults). beacon_interval_s > 0 also
  /// sets each station's data_rate_bps from the criterion (beacons need a
  /// rate to have an airtime). All default off: a network built without them
  /// behaves draw-for-draw as before.
  double beacon_interval_s = 0.0;
  double neighbor_timeout_s = 0.0;
  bool readopt_neighbors = false;
};

struct ScheduledNetwork {
  Schedule schedule;
  std::vector<StationClock> clocks;
  /// Direct neighbours of each station (ids), as selected by the builder.
  std::vector<std::vector<StationId>> neighbors;
  /// One MAC per station, ready for Simulator::set_mac.
  std::vector<std::unique_ptr<ScheduledStation>> macs;
  /// Fixed packet airtime and the matching size at the criterion's rate.
  double packet_airtime_s = 0.0;
  double packet_bits = 0.0;
  /// The tolerated-interference budget used for respect flags, watts.
  double interference_budget_w = 0.0;
};

/// Fresh clocks for `count` stations (Section 7.1): independent random
/// offsets (slots are unaligned) and quartz drift within
/// config.max_drift_ppm. Both builders draw these first from their `rng`.
[[nodiscard]] std::vector<StationClock> draw_clocks(
    std::size_t count, const ScheduledNetworkConfig& config, Rng& rng);

/// Turns one neighbour table per station into a running network: the
/// network-wide schedule, packet airtime and size at the criterion's rate,
/// interference budget, neighbour id lists, Section-7.3 respect flags
/// (judged against each station's worst-case power, overwriting any the
/// tables carry) and one ScheduledStation per station configured from
/// `config`. The tables may come from ground truth or from the air; this is
/// the one place either becomes a network.
[[nodiscard]] ScheduledNetwork assemble_scheduled_network(
    std::vector<StationClock> clocks, std::vector<NeighborTable> tables,
    const radio::ReceptionCriterion& criterion,
    const ScheduledNetworkConfig& config);

/// Builds the full network state for `gains` under `criterion` from ground
/// truth: draw_clocks, then each station's reachable neighbours
/// (PropagationMatrix::neighbors_at_least at config.power().min_gain()) in
/// id order with their true gains and rendezvous-fitted clock models, then
/// assemble_scheduled_network. Deterministic given `rng`'s state.
[[nodiscard]] ScheduledNetwork build_scheduled_network(
    const radio::PropagationMatrix& gains,
    const radio::ReceptionCriterion& criterion,
    const ScheduledNetworkConfig& config, Rng& rng);

}  // namespace drn::core
