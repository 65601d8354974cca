// The paper's station behaviour: collision-free scheduled channel access
// (Sections 6-7) as a MacProtocol for the event simulator.
//
// Behaviour per Section 7:
//   * the station publishes (via its schedule + clock) receive windows it
//     commits to, and only ever transmits inside its own transmit windows;
//   * a packet for neighbour n is sent at the earliest time a transmit
//     window of ours overlaps a (guard-shrunk, clock-model-predicted)
//     receive window of n long enough for the packet;
//   * packets are fixed-size (nominally one quarter slot, Section 7.2);
//   * queues are per-next-hop and the earliest feasible transmission across
//     ALL queues is sent first — "a station need not block the head of the
//     line", which is how transmit duty cycles approach 50%;
//   * transmit power delivers constant power to the addressee (Section 6.1);
//   * receive windows of very-near third parties are avoided (Section 7.3).
//
// No acknowledgements, no carrier sense, no per-packet control traffic: the
// single data transmission is the only emission per hop.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "core/access.hpp"
#include "core/clock.hpp"
#include "core/neighbor_table.hpp"
#include "core/power_control.hpp"
#include "core/schedule.hpp"
#include "sim/mac.hpp"

namespace drn::core {

/// Length of every beacon, bits: maintenance beacons (below) and the
/// discovery phase's (discovery.hpp) alike.
inline constexpr double kBeaconBits = 500.0;

struct ScheduledStationConfig {
  /// The network-wide schedule function (same seed everywhere).
  Schedule schedule;
  /// This station's own clock.
  StationClock clock;
  /// Nominal packet airtime, global seconds (nominally slot/4). Packets are
  /// assumed to be sized for this airtime at the design rate; when
  /// `data_rate_bps` (below) is set, the actual airtime of each packet is
  /// computed from its size and the link's rate instead.
  double packet_airtime_s = 0.0;
  /// Guard padding absorbing clock-prediction error, sender-local seconds.
  double guard_s = 0.0;
  /// Power policy toward addressees.
  PowerControl power = PowerControl::fixed(1.0);
  /// Per-neighbour queue capacity; beyond it packets are dropped.
  std::size_t max_queue = 4096;
  /// Section 7.3: the interference a receiver tolerates (its expected signal
  /// over the required SINR), watts. When > 0, a planned transmission avoids
  /// the receive windows of any respect-flagged third party to which it
  /// would deliver a significant share of this budget
  /// (interferes_significantly) — judged by THIS transmission's power, so
  /// low-power hops to close neighbours avoid almost no one. When 0, the
  /// respect flag alone decides (worst-case, maximally conservative).
  double interference_budget_w = 0.0;
  /// The design data rate, used to compute per-packet airtimes (with
  /// Neighbor::rate_bps overriding per link). 0 = every packet occupies
  /// exactly packet_airtime_s (the fixed-size base design).
  double data_rate_bps = 0.0;
  /// Maintenance beacons ("stations occasionally rendezvous", Section 7):
  /// when > 0, the station broadcasts a clock-stamped beacon roughly every
  /// beacon_interval_s — inside its own transmit windows, avoiding respected
  /// third parties' receive windows — and continuously refits each
  /// neighbour's clock model from a sliding window of received beacon
  /// stamps, keeping guards valid indefinitely under drift. Requires
  /// data_rate_bps > 0.
  double beacon_interval_s = 0.0;
  double beacon_bits = kBeaconBits;
  /// Dynamics resilience: when > 0 (requires beacons), a neighbour not heard
  /// from for this long is evicted — its queue is dropped and its receive
  /// windows stop constraining us, so packets are never routed at a ghost
  /// and a crashed near neighbour cannot pin our schedule forever.
  double neighbor_timeout_s = 0.0;
  /// Dynamics resilience: when true (requires beacons), a station heard
  /// beaconing that is not in the neighbour table is adopted once two clock
  /// stamps are in hand — gain observed as signal_w / tx_power_w, clock
  /// model fitted from the stamps. This is how a rejoining station is
  /// re-discovered by its neighbours.
  bool readopt_neighbors = false;
};

class ScheduledStation final : public sim::MacProtocol {
 public:
  ScheduledStation(ScheduledStationConfig config, NeighborTable neighbors);

  void on_start(sim::MacContext& ctx) override;
  void on_enqueue(sim::MacContext& ctx, const sim::Packet& pkt,
                  StationId next_hop) override;
  void on_timer(sim::MacContext& ctx, std::uint64_t cookie) override;
  void on_transmit_end(sim::MacContext& ctx, const sim::Packet& pkt,
                       StationId to, bool delivered) override;
  void on_broadcast_received(sim::MacContext& ctx, const sim::Packet& pkt,
                             StationId from, double signal_w) override;
  void on_clock_rate_changed(sim::MacContext& ctx, double delta_ppm) override;

  /// Packets currently queued across all next hops (also consulted by the
  /// simulator at churn teardown).
  [[nodiscard]] std::size_t queued_packets() const override;

  [[nodiscard]] const NeighborTable& neighbors() const { return neighbors_; }
  [[nodiscard]] const ScheduledStationConfig& config() const { return config_; }

  /// Sliding window of clock samples kept per neighbour for refitting.
  static constexpr std::size_t kMaxClockSamples = 8;

  /// Beacon stamps received from `neighbor` so far (test introspection).
  [[nodiscard]] std::size_t clock_samples_from(StationId neighbor) const;

  /// Beaconers this station keeps state for (test introspection).
  [[nodiscard]] std::size_t beacon_peer_count() const {
    return peer_index_.size();
  }

  /// Spill windows ever allocated, and how many of them are free (test
  /// introspection).
  [[nodiscard]] std::size_t spill_windows() const {
    return spills_.size() / kSpillSamples;
  }
  [[nodiscard]] std::size_t free_spill_windows() const {
    return free_spills_.size();
  }

 private:
  /// Stamps a peer record holds itself; the rest of a window spills.
  static constexpr std::size_t kHeldSamples = 2;
  static constexpr std::size_t kSpillSamples =
      kMaxClockSamples - kHeldSamples;

  /// Per-beaconer bookkeeping: when the station was last heard (global
  /// seconds), where it sits in neighbors_ (if it does), and its last
  /// kMaxClockSamples clock stamps. At large M every station hears every
  /// beacon, so this state is reached through one O(1) id lookup per
  /// decoded beacon: peer_index_ names a slot in peers_, and the slot names
  /// the neighbour entry. Under re-adoption most peers hold two stamps or
  /// fewer for a whole trial (a stranger is adopted at its second), so the
  /// record holds the first kHeldSamples stamps itself, and the third takes
  /// a pooled spill window for the rest. The window reads held then spill,
  /// oldest->newest. A beaconer that is neither a neighbour nor adoptable
  /// gets no state. An evicted neighbour's slot and spill window are freed
  /// and reused, so a re-adopted peer starts a fresh window.
  struct BeaconPeer {
    static constexpr std::uint32_t kNoSpill = IdIndex::kAbsent;
    double last_heard_global_s = 0.0;
    std::uint32_t neighbor = IdIndex::kAbsent;  // position in neighbors_
    std::uint32_t samples = 0;
    std::uint32_t spill = kNoSpill;  // window in spills_ from stamp 3 on
    std::array<ClockSample, kHeldSamples> held{};
  };

  struct Plan {
    StationId neighbor = kNoStation;  // kBroadcast for a beacon
    double start_local_s = 0.0;
  };

  /// Airtime of `pkt` on the link to `n` (per-link rate, else design rate,
  /// else the nominal fixed airtime).
  [[nodiscard]] double airtime_s(const sim::Packet& pkt,
                                 const Neighbor& n) const;

  /// Earliest feasible start (sender-local), no earlier than
  /// `earliest_local_s`, for a transmission of `duration_s` to `addressee`
  /// (an entry of neighbors_), or for a maintenance beacon when `addressee`
  /// is null. The window constraints, in order: our own transmit windows,
  /// the addressee's receive windows, then the respected third parties'
  /// receive windows in table order (for a unicast only those its power
  /// reaches significantly; for a beacon all of them).
  [[nodiscard]] std::optional<double> find_start(const Neighbor* addressee,
                                                 double earliest_local_s,
                                                 double duration_s) const;

  /// Re-evaluates what to send next and (re)arms the plan timer if a better
  /// opportunity exists.
  void replan(sim::MacContext& ctx);

  /// ClockModel::fit over the stamps of peer slot `slot` (at least one),
  /// oldest->newest.
  [[nodiscard]] ClockModel fit_clock(std::uint32_t slot) const;

  /// Appends `sample` to the stamps of `peer`, sliding the oldest out of a
  /// full window.
  void record_stamp(BeaconPeer& peer, const ClockSample& sample);

  /// Starts an empty window for beaconer `id`, whose neighbour-table
  /// position is `neighbor` (IdIndex::kAbsent if none); returns its slot.
  std::uint32_t open_peer(StationId id, std::uint32_t neighbor);

  void send_beacon(sim::MacContext& ctx);

  /// Evicts every neighbour silent for longer than neighbor_timeout_s,
  /// dropping its queue and invalidating any plan aimed at it.
  void evict_stale(sim::MacContext& ctx);

  [[nodiscard]] bool beacons_enabled() const {
    return config_.beacon_interval_s > 0.0;
  }
  [[nodiscard]] double beacon_airtime_s() const {
    return config_.beacon_bits / config_.data_rate_bps;
  }

  ScheduledStationConfig config_;
  NeighborTable neighbors_;
  std::map<StationId, std::deque<sim::Packet>> queues_;
  std::optional<Plan> plan_;
  std::uint64_t plan_generation_ = 0;
  /// Handle of the armed plan timer: a superseded or invalidated plan's
  /// timer is cancelled outright rather than left to fire as a stale no-op
  /// (the plan_generation_ cookie check stays as defense in depth).
  sim::TimerHandle plan_timer_;
  double busy_until_global_s_ = 0.0;
  // Maintenance-beacon state.
  double next_beacon_due_global_s_ = 0.0;
  double beacon_power_w_ = 0.0;
  IdIndex peer_index_;  // id -> slot in peers_
  std::vector<BeaconPeer> peers_;
  std::vector<std::uint32_t> free_peers_;
  /// Pooled spill windows, kSpillSamples stamps each: window w is
  /// [w * kSpillSamples, (w + 1) * kSpillSamples).
  std::vector<ClockSample> spills_;
  std::vector<std::uint32_t> free_spills_;
  // Reference instant a never-heard neighbour's silence ages from.
  double eviction_epoch_s_ = 0.0;
};

}  // namespace drn::core
