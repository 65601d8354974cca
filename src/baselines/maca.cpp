#include "baselines/maca.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace drn::baselines {

namespace {
constexpr double kEpsS = 1e-9;
/// Control frame sizes, bits (at the design rate).
constexpr double kRtsBits = 160.0;
constexpr double kCtsBits = 160.0;
/// Radio turnaround between handshake steps, seconds.
constexpr double kTurnaroundS = 1.0e-5;
/// CTS wait beyond the expected handshake time before backing off.
constexpr double kTimeoutSlackS = 5.0e-4;
}

MacaMac::MacaMac(MacaConfig config) : config_(config) {
  DRN_EXPECTS(config.power_w > 0.0);
  DRN_EXPECTS(config.data_rate_bps > 0.0);
  DRN_EXPECTS(config.max_retries >= 0);
  DRN_EXPECTS(config.backoff_mean_s > 0.0);
  DRN_EXPECTS(config.max_queue > 0);
}

void MacaMac::on_enqueue(sim::MacContext& ctx, const sim::Packet& pkt,
                         StationId next_hop) {
  if (queue_.size() >= config_.max_queue) {
    ctx.drop(pkt);
    return;
  }
  queue_.emplace_back(pkt, next_hop);
  try_head(ctx);
}

void MacaMac::try_head(sim::MacContext& ctx) {
  if (state_ != State::kIdle || queue_.empty()) return;
  const double ready = std::max(defer_until_s_, busy_until_s_);
  if (ctx.now() + kEpsS < ready) {
    if (!try_armed_) {
      try_armed_ = true;
      ctx.set_timer(ready + kEpsS, cookie(kTryTag));
    }
    return;
  }

  // Fire the RTS: addressed in the payload, broadcast on the air so hidden
  // stations can learn to defer.
  const auto& [pkt, next_hop] = queue_.front();
  sim::Packet rts;
  rts.kind = sim::PacketKind::kRts;
  rts.source = ctx.self();
  rts.destination = next_hop;
  rts.size_bits = kRtsBits;
  rts.nav_s = airtime(pkt.size_bits);  // tells the addressee the data length
  ctx.transmit(rts, kBroadcast, config_.power_w, ctx.now());
  busy_until_s_ = ctx.now() + airtime(kRtsBits);

  state_ = State::kWaitCts;
  data_peer_ = next_hop;
  ++generation_;
  const double timeout =
      busy_until_s_ + kTurnaroundS + airtime(kCtsBits) + kTimeoutSlackS;
  ctx.set_timer(timeout, cookie(kCtsTimeoutTag));
}

void MacaMac::arm_retry(sim::MacContext& ctx) {
  ++attempts_;
  if (attempts_ > config_.max_retries) {
    give_up(ctx);
    return;
  }
  const double scale = static_cast<double>(1 << std::min(attempts_, 10));
  defer_until_s_ = std::max(
      defer_until_s_,
      ctx.now() + ctx.rng().uniform(0.0, 2.0 * config_.backoff_mean_s * scale));
  state_ = State::kIdle;
  try_head(ctx);
}

void MacaMac::give_up(sim::MacContext& ctx) {
  DRN_EXPECTS(!queue_.empty());
  ctx.drop(queue_.front().first);
  queue_.pop_front();
  attempts_ = 0;
  state_ = State::kIdle;
  try_head(ctx);
}

void MacaMac::on_timer(sim::MacContext& ctx, std::uint64_t raw_cookie) {
  const std::uint64_t tag = raw_cookie % 8;
  const std::uint64_t gen = raw_cookie / 8;

  if (tag == kTryTag) {
    try_armed_ = false;
    try_head(ctx);
    return;
  }
  if (gen != generation_) return;  // stale handshake step

  switch (tag) {
    case kCtsTimeoutTag:
      if (state_ == State::kWaitCts) arm_retry(ctx);
      break;
    case kSendCtsTag: {
      // Reply CTS if the radio is free (if not, the initiator times out).
      if (ctx.transmitting() || ctx.now() + kEpsS < busy_until_s_) break;
      sim::Packet cts;
      cts.kind = sim::PacketKind::kCts;
      cts.source = ctx.self();
      cts.destination = cts_peer_;
      cts.size_bits = kCtsBits;
      cts.nav_s = kTurnaroundS + cts_data_nav_s_;
      ctx.transmit(cts, kBroadcast, config_.power_w, ctx.now());
      busy_until_s_ = ctx.now() + airtime(kCtsBits);
      break;
    }
    case kSendDataTag: {
      if (state_ != State::kWaitCts || queue_.empty()) break;
      const auto& [pkt, next_hop] = queue_.front();
      const double start = std::max(ctx.now(), busy_until_s_);
      ctx.transmit(pkt, next_hop, config_.power_w, start);
      busy_until_s_ = start + airtime(pkt.size_bits);
      state_ = State::kSendingData;
      break;
    }
    default:
      break;
  }
}

void MacaMac::on_broadcast_received(sim::MacContext& ctx,
                                    const sim::Packet& pkt, StationId from,
                                    double /*signal_w*/) {
  switch (pkt.kind) {
    case sim::PacketKind::kRts:
      if (pkt.destination == ctx.self()) {
        // Someone wants to talk to us: answer after the turnaround, if we
        // are not in the middle of our own exchange.
        if (state_ != State::kIdle) break;
        cts_peer_ = from;
        cts_data_nav_s_ = pkt.nav_s;
        ++generation_;
        ctx.set_timer(ctx.now() + kTurnaroundS, cookie(kSendCtsTag));
      } else {
        // Defer long enough for the (unheard) CTS to come back.
        defer_until_s_ = std::max(
            defer_until_s_,
            ctx.now() + kTurnaroundS + airtime(kCtsBits) + kTimeoutSlackS);
      }
      break;
    case sim::PacketKind::kCts:
      if (pkt.destination == ctx.self() && state_ == State::kWaitCts &&
          from == data_peer_) {
        ++generation_;  // invalidates the CTS timeout
        ctx.set_timer(ctx.now() + kTurnaroundS, cookie(kSendDataTag));
      } else if (pkt.destination != ctx.self()) {
        // Keep quiet while the data frame we may not hear is in the air.
        defer_until_s_ = std::max(defer_until_s_, ctx.now() + pkt.nav_s);
      }
      break;
    case sim::PacketKind::kData:
      break;  // data is never broadcast
  }
}

void MacaMac::on_transmit_end(sim::MacContext& ctx, const sim::Packet& pkt,
                              StationId /*to*/, bool /*delivered*/) {
  if (pkt.kind != sim::PacketKind::kData) return;
  // Original MACA has no link-layer ACK: the exchange ends with the data
  // frame, delivered or not.
  DRN_EXPECTS(!queue_.empty());
  queue_.pop_front();
  attempts_ = 0;
  state_ = State::kIdle;
  try_head(ctx);
}

}  // namespace drn::baselines
