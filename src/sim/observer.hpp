// Passive instrumentation of the simulator: an observer sees every
// transmission start and every reception outcome, with the physical facts
// (powers, SINR, loss classification) attached. Tests use this to check
// schedule compliance against ground-truth clocks; tools use it for traces.
//
// All notifications originate in the physical layer (sim::RadioMedium) at
// the instant the fact becomes true on the air. Install observers
// (auditors, dynamics engines, traces) with Simulator::add_observer; each
// is notified in installation order.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/metrics.hpp"
#include "sim/packet.hpp"

namespace drn::sim {

/// Facts about a transmission at the moment it starts radiating.
struct TxEvent {
  std::uint64_t tx_id = 0;
  StationId from = kNoStation;
  /// Addressee, or kBroadcast.
  StationId to = kNoStation;
  double power_w = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  double rate_bps = 0.0;
  PacketId packet = 0;
};

/// Facts about one reception at the moment its transmission ends.
struct RxEvent {
  std::uint64_t tx_id = 0;
  StationId rx = kNoStation;
  bool delivered = false;
  LossType loss = LossType::kNone;
  /// Worst SINR seen over the packet's airtime.
  double min_sinr = 0.0;
  /// The threshold this reception had to clear.
  double required_snr = 0.0;
  /// Received signal power, watts (what a receiver can measure).
  double signal_w = 0.0;
};

class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_transmit_start(const TxEvent& tx) { (void)tx; }
  virtual void on_reception_complete(const RxEvent& rx) { (void)rx; }
  /// A transmission already on the air was cut short at `time_s` (its sender
  /// was torn down by a dynamics event). The RxEvents for its receptions
  /// follow immediately, carrying LossType::kAborted; `tx` repeats the
  /// original on_transmit_start facts (so end_s is the PLANNED end — the
  /// actual end is time_s).
  virtual void on_transmit_aborted(const TxEvent& tx, double time_s) {
    (void)tx;
    (void)time_s;
  }
};

}  // namespace drn::sim
