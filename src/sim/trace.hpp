// A recording observer: captures every transmission and reception outcome
// for offline analysis, assertions, or CSV export. Plug into
// Simulator::add_observer, alongside any auditor; two complete traces of
// one scenario are what audit::cross_check_engine compares.
//
// Memory can be bounded with a max_events cap: each stream keeps only the
// newest max_events records (oldest dropped first) and counts what it shed,
// so long sweeps with tracing enabled stay O(cap) instead of O(run length).
#pragma once

#include <cstdint>
#include <deque>
#include <ostream>

#include "sim/observer.hpp"

namespace drn::sim {

class TraceRecorder final : public SimObserver {
 public:
  /// `max_events` caps EACH stream (transmissions, receptions) separately;
  /// 0 means unbounded.
  explicit TraceRecorder(std::size_t max_events = 0)
      : max_events_(max_events) {}

  void on_transmit_start(const TxEvent& tx) override;
  void on_reception_complete(const RxEvent& rx) override;

  [[nodiscard]] const std::deque<TxEvent>& transmissions() const {
    return transmissions_;
  }
  [[nodiscard]] const std::deque<RxEvent>& receptions() const {
    return receptions_;
  }

  /// The per-stream cap (0 = unbounded).
  [[nodiscard]] std::size_t max_events() const { return max_events_; }

  /// Events shed from the front of each stream to honour the cap.
  [[nodiscard]] std::uint64_t dropped_transmissions() const {
    return dropped_transmissions_;
  }
  [[nodiscard]] std::uint64_t dropped_receptions() const {
    return dropped_receptions_;
  }

  /// Writes the transmissions as CSV:
  /// tx_id,from,to,power_w,start_s,end_s,rate_bps,packet.
  void write_transmissions_csv(std::ostream& os) const;

  /// Writes the receptions as CSV:
  /// tx_id,rx,delivered,loss,min_sinr,required_snr,signal_w.
  void write_receptions_csv(std::ostream& os) const;

  /// Discards all records and resets the dropped counters.
  void clear();

 private:
  std::size_t max_events_ = 0;
  std::deque<TxEvent> transmissions_;
  std::deque<RxEvent> receptions_;
  std::uint64_t dropped_transmissions_ = 0;
  std::uint64_t dropped_receptions_ = 0;
};

}  // namespace drn::sim
