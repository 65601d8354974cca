#include "core/scheduled_station.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/expects.hpp"

namespace drn::core {

namespace {

/// Margin keeping converted times strictly inside simulator preconditions
/// despite local<->global round-trips (1 ns against millisecond slots).
constexpr double kTimeEpsilonS = 1e-9;

/// Window search horizon, in slots.
constexpr double kHorizonSlots = 20000.0;

/// Timer cookie for the beacon-due wakeup (plan cookies count up from 1, so
/// the max value can never collide).
constexpr std::uint64_t kBeaconWakeCookie =
    std::numeric_limits<std::uint64_t>::max();

}  // namespace

ScheduledStation::ScheduledStation(ScheduledStationConfig config,
                                   NeighborTable neighbors)
    : config_(std::move(config)), neighbors_(std::move(neighbors)) {
  DRN_EXPECTS(config_.packet_airtime_s > 0.0);
  DRN_EXPECTS(config_.guard_s >= 0.0);
  DRN_EXPECTS(config_.max_queue > 0);
  // A schedule only works if a packet plus guards fits inside one slot; the
  // paper uses quarter-slot packets precisely to make fitting easy.
  DRN_EXPECTS(config_.packet_airtime_s + 2.0 * config_.guard_s <=
              config_.schedule.slot_duration_s());
  // Timeout eviction and re-adoption both hinge on hearing (or not hearing)
  // periodic beacons; without beacons they could only misfire.
  DRN_EXPECTS(config_.neighbor_timeout_s <= 0.0 || beacons_enabled());
  DRN_EXPECTS(!config_.readopt_neighbors || beacons_enabled());
  if (beacons_enabled()) {
    DRN_EXPECTS(config_.data_rate_bps > 0.0);
    DRN_EXPECTS(config_.beacon_bits > 0.0);
    // Beacon power: enough to reach the weakest neighbour (the same worst
    // case the respect flags already budget for).
    for (const auto& n : neighbors_.all()) {
      beacon_power_w_ =
          std::max(beacon_power_w_, config_.power.transmit_power_w(n.gain));
    }
  }
}

void ScheduledStation::on_start(sim::MacContext& ctx) {
  eviction_epoch_s_ = ctx.now();
  if (!beacons_enabled()) return;
  if (neighbors_.size() == 0 && !config_.readopt_neighbors) return;
  // Desynchronise the first beacon across stations.
  next_beacon_due_global_s_ =
      ctx.now() + ctx.rng().uniform(0.0, config_.beacon_interval_s);
  ctx.set_timer(next_beacon_due_global_s_, kBeaconWakeCookie);
}

std::size_t ScheduledStation::queued_packets() const {
  std::size_t n = 0;
  for (const auto& [id, q] : queues_) n += q.size();
  return n;
}

double ScheduledStation::airtime_s(const sim::Packet& pkt,
                                   const Neighbor& n) const {
  const double rate =
      n.rate_bps > 0.0 ? n.rate_bps : config_.data_rate_bps;
  if (rate <= 0.0) return config_.packet_airtime_s;
  return pkt.size_bits / rate;
}

std::optional<double> ScheduledStation::find_start(
    const Neighbor* addressee, double earliest_local_s,
    double duration_s) const {
  std::vector<WindowConstraint> constraints;
  constraints.reserve(2 + neighbors_.size());
  // Our own published schedule: we may only radiate in our transmit windows.
  constraints.push_back(WindowConstraint{&config_.schedule, ClockModel(),
                                         /*want_receive=*/false,
                                         Seconds{0.0}});
  // A unicast's addressee must be committed to listen, with guards against
  // our imperfect model of its clock.
  if (addressee != nullptr) {
    constraints.push_back(WindowConstraint{&config_.schedule,
                                           addressee->clock,
                                           /*want_receive=*/true,
                                           Seconds{config_.guard_s}});
  }
  // Section 7.3: stay out of very-near third parties' receive windows —
  // those to which THIS transmission's power would deliver a significant
  // fraction of their interference budget. A beacon goes out at worst-case
  // power to no one in particular, so it respects every flagged neighbour.
  const bool beacon = addressee == nullptr;
  const double power_w =
      beacon ? 0.0 : config_.power.transmit_power_w(addressee->gain);
  for (const auto& m : neighbors_.all()) {
    if (!m.respect_receive_windows || &m == addressee) continue;
    if (!beacon && config_.interference_budget_w > 0.0 &&
        !interferes_significantly(m.gain, power_w,
                                  config_.interference_budget_w)) {
      continue;
    }
    constraints.push_back(WindowConstraint{&config_.schedule, m.clock,
                                           /*want_receive=*/false,
                                           Seconds{config_.guard_s}});
  }

  AccessRequest request;
  request.earliest_local = Seconds{earliest_local_s};
  request.duration = Seconds{duration_s * config_.clock.rate()};
  request.horizon =
      Seconds{kHorizonSlots * config_.schedule.slot_duration_s()};
  const auto start = find_transmission_start(request, constraints);
  if (!start) return std::nullopt;
  return start->value();
}

void ScheduledStation::replan(sim::MacContext& ctx) {
  const double earliest_global =
      std::max(ctx.now(), busy_until_global_s_) + kTimeEpsilonS;
  const double earliest_local =
      config_.clock.local(Seconds{earliest_global}).value();

  std::optional<Plan> best;
  for (const auto& [neighbor, queue] : queues_) {
    if (queue.empty()) continue;
    const Neighbor* n = neighbors_.find(neighbor);
    DRN_EXPECTS(n != nullptr);
    if (const auto start =
            find_start(n, earliest_local, airtime_s(queue.front(), *n))) {
      if (!best || *start < best->start_local_s)
        best = Plan{neighbor, *start};
    }
  }
  // A due maintenance beacon competes like any packet. Under re-adoption a
  // station keeps beaconing even with every neighbour evicted — that is how
  // the others re-discover it.
  if (beacons_enabled() &&
      (neighbors_.size() > 0 || config_.readopt_neighbors) &&
      beacon_power_w_ > 0.0 && ctx.now() >= next_beacon_due_global_s_) {
    if (const auto start =
            find_start(nullptr, earliest_local, beacon_airtime_s())) {
      if (!best || *start < best->start_local_s)
        best = Plan{kBroadcast, *start};
    }
  }
  if (!best) return;  // nothing sendable within the horizon
  if (plan_ && plan_->start_local_s <= best->start_local_s) return;

  plan_ = best;
  ++plan_generation_;
  // The superseded plan's timer (if still pending) is disarmed for real —
  // before real cancellation each replanning left a dead timer in the event
  // queue until its fire time.
  ctx.cancel_timer(plan_timer_);
  plan_timer_ =
      ctx.set_timer(std::max(ctx.now(),
                             config_.clock.global(Seconds{best->start_local_s})
                                 .value()),
                    plan_generation_);
}

void ScheduledStation::send_beacon(sim::MacContext& ctx) {
  sim::Packet beacon;
  beacon.source = ctx.self();
  beacon.destination = kBroadcast;
  beacon.size_bits = config_.beacon_bits;
  const double start = std::max(ctx.now(), busy_until_global_s_);
  beacon.sender_local_s = config_.clock.local(Seconds{start}).value();
  beacon.tx_power_w = beacon_power_w_;  // lets receivers observe the gain
  ctx.transmit(beacon, kBroadcast, beacon_power_w_, start);
  busy_until_global_s_ = start + beacon_airtime_s();
  next_beacon_due_global_s_ = start + config_.beacon_interval_s;
  ctx.set_timer(next_beacon_due_global_s_, kBeaconWakeCookie);
}

void ScheduledStation::on_enqueue(sim::MacContext& ctx, const sim::Packet& pkt,
                                  StationId next_hop) {
  DRN_EXPECTS(next_hop != ctx.self());
  if (neighbors_.find(next_hop) == nullptr) {
    ctx.drop(pkt);  // routed toward a station we cannot reach directly
    return;
  }
  auto& queue = queues_[next_hop];
  if (queue.size() >= config_.max_queue) {
    ctx.drop(pkt);
    return;
  }
  queue.push_back(pkt);
  replan(ctx);
}

void ScheduledStation::on_timer(sim::MacContext& ctx, std::uint64_t cookie) {
  if (cookie == kBeaconWakeCookie) {
    evict_stale(ctx);  // beacon cadence doubles as the staleness sweep
    replan(ctx);       // a beacon may have just become due
    // If nothing could be planned (e.g. no neighbours yet — a rejoined
    // station still listening for its first adoption), keep the periodic
    // wake alive instead of letting the beacon chain die.
    if (!plan_ && beacons_enabled()) {
      next_beacon_due_global_s_ = ctx.now() + config_.beacon_interval_s;
      ctx.set_timer(next_beacon_due_global_s_, kBeaconWakeCookie);
    }
    return;
  }
  if (!plan_ || cookie != plan_generation_) return;  // superseded plan
  const Plan plan = *plan_;
  plan_.reset();

  if (plan.neighbor == kBroadcast) {
    send_beacon(ctx);
    replan(ctx);
    return;
  }

  auto it = queues_.find(plan.neighbor);
  DRN_EXPECTS(it != queues_.end() && !it->second.empty());
  const sim::Packet pkt = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);

  const Neighbor* n = neighbors_.find(plan.neighbor);
  const double start = std::max(ctx.now(), busy_until_global_s_);
  ctx.transmit(pkt, plan.neighbor, config_.power.transmit_power_w(n->gain),
               start, n->rate_bps);
  busy_until_global_s_ = start + airtime_s(pkt, *n);
  replan(ctx);
}

void ScheduledStation::on_transmit_end(sim::MacContext& ctx,
                                       const sim::Packet& pkt, StationId to,
                                       bool delivered) {
  (void)pkt;
  (void)to;
  (void)delivered;  // the scheme needs no acknowledgements
  replan(ctx);
}

void ScheduledStation::on_broadcast_received(sim::MacContext& ctx,
                                             const sim::Packet& pkt,
                                             StationId from,
                                             double signal_w) {
  if (!beacons_enabled()) return;
  // One O(1) lookup covers everything the beacon updates: at large M every
  // station hears every beacon, so this path runs millions of times per
  // simulated second.
  std::uint32_t slot = peer_index_.find(from);
  if (slot == IdIndex::kAbsent) {
    const std::uint32_t at = neighbors_.position(from);
    // A stranger that may never be adopted needs no state.
    if (at == IdIndex::kAbsent && !config_.readopt_neighbors) return;
    slot = open_peer(from, at);
  }
  BeaconPeer& peer = peers_[slot];
  peer.last_heard_global_s = ctx.now();

  ClockSample sample;
  sample.mine_s = config_.clock.local(Seconds{ctx.now()}).value();
  sample.theirs_s =
      pkt.sender_local_s + pkt.size_bits / config_.data_rate_bps;
  record_stamp(peer, sample);

  if (peer.neighbor == IdIndex::kAbsent) {
    // An unknown beaconer — a station that joined or rejoined. Adopt it once
    // two stamps allow a clock fit and the stamped power reveals the gain.
    if (peer.samples < 2 || pkt.tx_power_w <= 0.0 || signal_w <= 0.0) return;
    Neighbor fresh;
    fresh.id = from;
    fresh.gain = signal_w / pkt.tx_power_w;
    fresh.clock = fit_clock(slot);
    peer.neighbor = static_cast<std::uint32_t>(neighbors_.size());
    neighbors_.add(fresh);
    beacon_power_w_ =
        std::max(beacon_power_w_, config_.power.transmit_power_w(fresh.gain));
    replan(ctx);
    return;
  }
  Neighbor& n = neighbors_.at_position(peer.neighbor);

  // Refresh the observed gain (mobility changes it). Sub-ppb wobble from the
  // power round-trip is ignored so a static network keeps bit-identical
  // gains; any real change dwarfs the threshold.
  if (pkt.tx_power_w > 0.0 && signal_w > 0.0) {
    const double observed = signal_w / pkt.tx_power_w;
    if (std::abs(observed - n.gain) > 1e-9 * n.gain) n.gain = observed;
  }

  // Refit once the window holds enough points to track drift.
  if (peer.samples >= 2) n.clock = fit_clock(slot);
}

void ScheduledStation::record_stamp(BeaconPeer& peer,
                                    const ClockSample& sample) {
  if (peer.samples < kHeldSamples) {
    peer.held[peer.samples++] = sample;
    return;
  }
  if (peer.spill == BeaconPeer::kNoSpill) {
    if (free_spills_.empty()) {
      peer.spill = static_cast<std::uint32_t>(spills_.size() / kSpillSamples);
      spills_.resize(spills_.size() + kSpillSamples);
    } else {
      peer.spill = free_spills_.back();
      free_spills_.pop_back();
    }
  }
  ClockSample* spill = spills_.data() + peer.spill * kSpillSamples;
  if (peer.samples < kMaxClockSamples) {
    spill[peer.samples++ - kHeldSamples] = sample;
    return;
  }
  // Full: slide the oldest out across held and spill stamps alike. The
  // window must stay oldest->newest: ClockModel::fit sums in that order, and
  // the pinned outputs depend on its bits.
  peer.held[0] = peer.held[1];
  peer.held[1] = spill[0];
  std::copy(spill + 1, spill + kSpillSamples, spill);
  spill[kSpillSamples - 1] = sample;
}

ClockModel ScheduledStation::fit_clock(std::uint32_t slot) const {
  const BeaconPeer& peer = peers_[slot];
  if (peer.samples <= kHeldSamples)
    return ClockModel::fit(std::span(peer.held.data(), peer.samples));
  std::array<ClockSample, kMaxClockSamples> window;
  std::copy(peer.held.begin(), peer.held.end(), window.begin());
  const ClockSample* spill = spills_.data() + peer.spill * kSpillSamples;
  std::copy(spill, spill + (peer.samples - kHeldSamples),
            window.begin() + kHeldSamples);
  return ClockModel::fit(std::span(window.data(), peer.samples));
}

std::uint32_t ScheduledStation::open_peer(StationId id,
                                          std::uint32_t neighbor) {
  std::uint32_t slot = 0;
  if (free_peers_.empty()) {
    slot = static_cast<std::uint32_t>(peers_.size());
    peers_.emplace_back();
  } else {
    slot = free_peers_.back();  // reset to an empty window when freed
    free_peers_.pop_back();
  }
  peers_[slot].neighbor = neighbor;
  peer_index_.insert(id, slot);
  return slot;
}

void ScheduledStation::on_clock_rate_changed(sim::MacContext& ctx,
                                             double delta_ppm) {
  // The oscillator sped up or slowed down relative to its CURRENT rate; the
  // reading is continuous at this instant, so re-anchor the offset at now.
  const double now = ctx.now();
  const double new_rate = config_.clock.rate() * (1.0 + delta_ppm * 1e-6);
  const double offset = config_.clock.local(Seconds{now}).value() - new_rate * now;
  config_.clock = StationClock(Seconds{offset}, new_rate);
}

void ScheduledStation::evict_stale(sim::MacContext& ctx) {
  if (config_.neighbor_timeout_s <= 0.0) return;
  const double now = ctx.now();
  std::vector<StationId> stale;
  for (const auto& n : neighbors_.all()) {
    const std::uint32_t slot = peer_index_.find(n.id);
    const double since = slot != IdIndex::kAbsent
                             ? peers_[slot].last_heard_global_s
                             : eviction_epoch_s_;
    if (now - since > config_.neighbor_timeout_s) stale.push_back(n.id);
  }
  for (const StationId id : stale) {
    const std::uint32_t at = neighbors_.position(id);
    neighbors_.erase(id);
    // Entries past the evicted one moved down a position.
    for (BeaconPeer& p : peers_)
      if (p.neighbor != IdIndex::kAbsent && p.neighbor > at) --p.neighbor;
    if (const std::uint32_t slot = peer_index_.find(id);
        slot != IdIndex::kAbsent) {
      // Freed with an empty window: a re-adopted peer starts afresh.
      peer_index_.erase(id);
      if (peers_[slot].spill != BeaconPeer::kNoSpill)
        free_spills_.push_back(peers_[slot].spill);
      peers_[slot] = BeaconPeer{};
      free_peers_.push_back(slot);
    }
    // The ghost's queue dies with it: those packets had nowhere to go.
    if (const auto it = queues_.find(id); it != queues_.end()) {
      for (const sim::Packet& pkt : it->second) ctx.drop(pkt);
      queues_.erase(it);
    }
    if (plan_ && plan_->neighbor == id) {
      plan_.reset();
      ctx.cancel_timer(plan_timer_);
    }
  }
}

std::size_t ScheduledStation::clock_samples_from(StationId neighbor) const {
  const std::uint32_t slot = peer_index_.find(neighbor);
  return slot == IdIndex::kAbsent ? 0 : peers_[slot].samples;
}

}  // namespace drn::core
