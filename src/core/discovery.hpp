// Over-the-air self-organisation: neighbour discovery and clock rendezvous.
//
// The paper assumes stations "observe the actual propagation between
// stations" (Section 3.5) and "occasionally rendezvous and exchange clock
// readings" (Section 7) but leaves the bootstrap mechanics open. This module
// implements the obvious one: during a discovery phase every station
// broadcasts a few kBeaconBits beacons at a known, network-wide power, each
// stamped with the sender's local clock. A receiver that decodes a beacon learns
//   * a path-gain sample   (received power / known beacon power), and
//   * a clock sample       (its own reading paired with the beacon stamp,
//                           corrected for the beacon's airtime),
// which is exactly the input the scheduled-access scheme needs: gains feed
// power control, routing costs and Section 7.3 respect flags; clock samples
// feed the affine ClockModel fits.
//
// discover_and_build() runs the whole phase in a Simulator and returns a
// ScheduledNetwork assembled purely from what stations HEARD — nothing is
// copied from the ground-truth propagation matrix.
#pragma once

#include <map>
#include <vector>

#include "common/running_stats.hpp"
#include "core/clock_model.hpp"
#include "core/network_builder.hpp"
#include "sim/mac.hpp"

namespace drn::core {

struct DiscoveryConfig {
  /// Beacons each station sends during the phase.
  int beacon_count = 6;
  /// Length of the discovery phase, seconds. Beacons are stratified over it
  /// at random offsets so they rarely collide.
  double duration_s = 10.0;
  /// The rate beacons air at; receivers correct clock stamps by the airtime
  /// at this same rate.
  double data_rate_bps = 1.0e6;
  /// Std-dev of the receiver's gain-measurement error, dB (0 = perfect).
  double gain_noise_db = 0.5;
};

/// What one station has learned about one neighbour.
struct NeighborObservation {
  RunningStats gain;  // linear power-gain samples
  std::vector<ClockSample> clock_samples;
};

/// The discovery-phase MAC: broadcasts stamped beacons, collects
/// observations from everyone it hears.
class DiscoveryStation final : public sim::MacProtocol {
 public:
  DiscoveryStation(DiscoveryConfig config, StationClock clock);

  void on_start(sim::MacContext& ctx) override;
  void on_timer(sim::MacContext& ctx, std::uint64_t cookie) override;
  void on_enqueue(sim::MacContext& ctx, const sim::Packet& pkt,
                  StationId next_hop) override;
  void on_broadcast_received(sim::MacContext& ctx, const sim::Packet& pkt,
                             StationId from, double signal_w) override;

  /// Everything heard so far, keyed by neighbour id.
  [[nodiscard]] const std::map<StationId, NeighborObservation>& observations()
      const {
    return observations_;
  }

  /// Converts the observations into a NeighborTable: mean measured gain,
  /// least-squares clock model; neighbours below `min_gain` or with fewer
  /// than two clock samples are not trusted.
  [[nodiscard]] NeighborTable build_neighbor_table(double min_gain) const;

 private:
  DiscoveryConfig config_;
  StationClock clock_;
  std::map<StationId, NeighborObservation> observations_;
};

/// Runs a full discovery phase for `gains` (draw_clocks, one
/// DiscoveryStation per station), keeps each station's heard neighbours
/// whose target power is reachable within the limit, and hands those tables
/// to assemble_scheduled_network — the assembly build_scheduled_network
/// feeds from ground truth. The returned neighbour lists may be a subset of
/// the true ones (beacons lost to collisions or below the reach threshold).
[[nodiscard]] ScheduledNetwork discover_and_build(
    const radio::PropagationMatrix& gains,
    const radio::ReceptionCriterion& criterion,
    const ScheduledNetworkConfig& net_config,
    const DiscoveryConfig& discovery_config, Rng& rng);

}  // namespace drn::core
