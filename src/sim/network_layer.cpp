#include "sim/network_layer.hpp"

#include <utility>

#include "common/expects.hpp"

namespace drn::sim {

namespace {

/// Default router: every destination is assumed to be in direct reach.
StationId direct_router(StationId /*at*/, StationId dst) { return dst; }

}  // namespace

NetworkLayer::NetworkLayer(StationHost& host, Metrics& metrics)
    : host_(host), metrics_(metrics), router_(direct_router) {}

void NetworkLayer::set_router(Router router) {
  DRN_EXPECTS(router != nullptr);
  router_ = std::move(router);
}

std::size_t NetworkLayer::stage(const Packet& packet) {
  staged_.push_back(packet);
  return staged_.size() - 1;
}

void NetworkLayer::admit(std::size_t index, double now_s) {
  DRN_EXPECTS(index < staged_.size());
  Packet packet = staged_[index];
  if (packet.id == 0) {
    packet.id = next_packet_id_++;
  } else if (packet.id >= next_packet_id_) {
    // Caller-chosen ids and generated ids share one namespace: advance the
    // generator past every injected id so later zero-id injections can never
    // collide with it and corrupt exactly-once accounting.
    next_packet_id_ = packet.id + 1;
  }
  packet.created_s = now_s;
  packet.hop_count = 0;
  metrics_.record_offered();
  enqueue_at(packet.source, packet);
}

void NetworkLayer::deliver(const Packet& packet, StationId at, double now_s) {
  Packet pkt = packet;
  ++pkt.hop_count;
  if (pkt.destination == at) {
    metrics_.record_delivery(now_s - pkt.created_s, pkt.hop_count);
    return;
  }
  enqueue_at(at, pkt);
}

void NetworkLayer::enqueue_at(StationId station, const Packet& packet) {
  if (!host_.station_active(station)) {
    metrics_.record_churn_drops(1);  // the station is down (churn)
    return;
  }
  const StationId next = router_(station, packet.destination);
  if (next == kNoStation || next == station) {
    metrics_.record_mac_drop();  // no route
    return;
  }
  DRN_EXPECTS(next < host_.station_count());
  host_.with_station(station, [this, &packet, next](MacProtocol& mac) {
    mac.on_enqueue(host_.context(), packet, next);
  });
}

}  // namespace drn::sim
