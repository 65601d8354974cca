// MACA (Karn 1990) — the RTS/CTS handshake the paper's Section 2 singles
// out as "the most notable recent progress" in the all-or-nothing tradition
// ("the MACA-MACAW-FAMA line of work begun by Karn").
//
// Behaviour implemented (original MACA, no link-layer ACK):
//   * a station with a packet sends a short RTS naming the addressee and a
//     NAV covering the CTS;
//   * the addressee answers CTS (NAV covering the data frame);
//   * anyone overhearing an RTS or CTS addressed elsewhere defers for the
//     NAV (this is how hidden terminals learn to keep quiet);
//   * on receiving CTS the initiator sends the data frame;
//   * no CTS within the timeout -> binary exponential backoff and a new RTS
//     (up to max_retries); a lost DATA frame is simply lost (recovery was
//     left to higher layers until MACAW added ACKs).
//
// All control traffic is real airtime under the same SINR physics — RTS
// packets collide, CTS packets interfere — so the comparison against the
// scheduled scheme charges MACA its true overhead, with no genie anywhere.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>

#include "common/types.hpp"
#include "sim/mac.hpp"

namespace drn::baselines {

struct MacaConfig {
  double power_w = 1.0;
  /// The design data rate (airtime arithmetic for NAVs and timeouts).
  double data_rate_bps = 1.0e6;
  int max_retries = 8;
  double backoff_mean_s = 0.01;
  std::size_t max_queue = 4096;
};

class MacaMac final : public sim::MacProtocol {
 public:
  explicit MacaMac(MacaConfig config);

  void on_enqueue(sim::MacContext& ctx, const sim::Packet& pkt,
                  StationId next_hop) override;
  void on_timer(sim::MacContext& ctx, std::uint64_t cookie) override;
  void on_transmit_end(sim::MacContext& ctx, const sim::Packet& pkt,
                       StationId to, bool delivered) override;
  void on_broadcast_received(sim::MacContext& ctx, const sim::Packet& pkt,
                             StationId from, double signal_w) override;

  [[nodiscard]] std::size_t queued_packets() const { return queue_.size(); }

 private:
  enum class State : std::uint8_t {
    kIdle,        // nothing in flight
    kWaitCts,     // RTS sent, waiting for the addressee's CTS
    kSendingData, // data frame on the air
  };

  // Timer cookies (generation-tagged to ignore stale ones).
  [[nodiscard]] std::uint64_t cookie(std::uint64_t tag) const {
    return generation_ * 8 + tag;
  }
  static constexpr std::uint64_t kTryTag = 0;      // attempt the head packet
  static constexpr std::uint64_t kCtsTimeoutTag = 1;
  static constexpr std::uint64_t kSendCtsTag = 2;
  static constexpr std::uint64_t kSendDataTag = 3;

  void try_head(sim::MacContext& ctx);
  void arm_retry(sim::MacContext& ctx);
  void give_up(sim::MacContext& ctx);

  [[nodiscard]] double airtime(double bits) const {
    return bits / config_.data_rate_bps;
  }

  MacaConfig config_;
  std::deque<std::pair<sim::Packet, StationId>> queue_;
  State state_ = State::kIdle;
  std::uint64_t generation_ = 1;
  int attempts_ = 0;
  double defer_until_s_ = 0.0;
  double busy_until_s_ = 0.0;  // our own transmitter's schedule
  bool try_armed_ = false;     // a kTryTag timer is pending
  // Pending CTS reply (we are the addressee of someone's RTS).
  StationId cts_peer_ = kNoStation;
  double cts_data_nav_s_ = 0.0;
  // Peer whose CTS we are waiting for / data addressee.
  StationId data_peer_ = kNoStation;
};

}  // namespace drn::baselines
