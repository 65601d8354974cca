// The network layer: Section 6.2 forwarding, built over the station host.
//
// NetworkLayer owns injected traffic (the packets staged until their inject
// event fires, and their packet-id namespace), the installed Router, and the
// hop-by-hop forwarding decisions: on a decoded unicast hop it either counts
// an end-to-end delivery or consults the router and re-enqueues the packet
// at the receiver's MAC. It touches stations only through StationHost
// (activation state + hook dispatch) and never sees interference or
// reception records — the medium reports decode outcomes upward through the
// Simulator facade.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "sim/metrics.hpp"
#include "sim/packet.hpp"
#include "sim/station_host.hpp"

namespace drn::sim {

/// Chooses the next hop for a packet at `at` destined for `dst`. Returning
/// kNoStation drops the packet (no route).
using Router = std::function<StationId(StationId at, StationId dst)>;

/// Section 6.2 forwarding: router, end-to-end delivery accounting, and the
/// injected traffic (staged packets and their packet-id namespace).
class NetworkLayer {
 public:
  NetworkLayer(StationHost& host, Metrics& metrics);

  NetworkLayer(const NetworkLayer&) = delete;
  NetworkLayer& operator=(const NetworkLayer&) = delete;

  /// Installs the next-hop chooser. Default: one-hop direct to destination.
  void set_router(Router router);

  /// Keeps a copy of `packet` until its inject event fires and returns the
  /// index that event carries. Staged packets stay until the layer is
  /// destroyed: every caller injects its whole workload before the loop
  /// starts, so all of them are waiting at once anyway and recycling slots
  /// would save nothing.
  std::size_t stage(const Packet& packet);

  /// Staged packet `index` enters the network at its source (its inject
  /// event fired). Assigns an id from the shared namespace if the caller
  /// left it 0 and advances the generator past caller-chosen ids so the two
  /// can never collide and corrupt exactly-once accounting.
  void admit(std::size_t index, double now_s);

  /// A packet decoded cleanly at `at`: end-to-end delivery if `at` is the
  /// destination, otherwise one more hop via the router.
  void deliver(const Packet& packet, StationId at, double now_s);

  /// Hands `packet` to `station`'s MAC with the router's next-hop choice
  /// (drops it if the station is down or no route exists).
  void enqueue_at(StationId station, const Packet& packet);

 private:
  StationHost& host_;
  Metrics& metrics_;
  Router router_;
  std::vector<Packet> staged_;  // injected packets, indexed by stage()
  PacketId next_packet_id_ = 1;
};

}  // namespace drn::sim
