// The physical layer of the simulator: RadioMedium owns everything that
// happens on the air (Sections 3.3-3.4 of the paper).
//
//   * transmission records: scheduled (booked but not yet radiating) and
//     active (in flight), in flat id-sorted sets;
//   * reception records, stored at their engine handles: despreading-channel
//     admission (Section 5), the running worst-SINR test against Eq. 3-6
//     thresholds, the Section 5 loss taxonomy (Type 1/2/3), and idealised
//     multiuser subtraction (footnote 2) of the k strongest interferers,
//     read off the active set and the gains at each SINR test;
//   * all interaction with the pluggable InterferenceEngine
//     (radio/interference_engine): start/end notifications, per-reception
//     interference queries, mobility-driven gain recomputation.
//
// The medium knows nothing about MACs, routing or station lifecycle — by
// design and by lint (drn_lint's layer-boundary rule forbids medium.* from
// including sim/mac.hpp). Outcomes that concern the layers above flow
// through the narrow RadioMedium::Client interface, which the Simulator
// facade implements by dispatching to StationHost (MAC hooks) and
// NetworkLayer (forwarding): decode outcomes and transmit completions go up;
// nothing above the medium can touch interference state directly.
//
// Everything here is a pure re-homing of the historical Simulator physics:
// engine calls, metrics calls and observer notifications run in exactly the
// order the monolithic class produced, so event-order golden digests and
// bench tables are byte-identical across the split.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/expects.hpp"
#include "common/types.hpp"
#include "geo/vec2.hpp"
#include "radio/interference_engine.hpp"
#include "radio/reception.hpp"
#include "sim/event_handle.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/observer.hpp"
#include "sim/packet.hpp"

namespace drn::sim {

struct SimulatorConfig {
  /// The fixed design rate / bandwidth / margin shared by all stations.
  radio::ReceptionCriterion criterion;
  /// Thermal noise floor at every receiver, watts. Negative = derive kTB
  /// from the criterion's bandwidth.
  double thermal_noise_w = -1.0;
  /// Parallel despreading channels per receiver (Section 5: "GPS receivers
  /// often have six or twelve"; routing keeps direct neighbours <= 8).
  int despreading_channels = 8;
  /// Multiuser detection: subtract up to this many strongest interfering
  /// contributions before the SINR test (0 = off, the paper's base model).
  int multiuser_subtract_k = 0;
  /// Master seed for the per-station MAC random streams.
  std::uint64_t seed = 1;
  /// Interference accounting engine used by the matrix constructor (the
  /// engine constructor brings its own). kNearFar needs geometry the matrix
  /// does not carry, so it is only reachable via the engine constructor.
  radio::InterferenceEngineKind engine =
      radio::InterferenceEngineKind::kCompensated;
};

/// The channel: spread-spectrum physics, interference accounting and the
/// reception admission/outcome rules, behind a MAC-free interface.
class RadioMedium {
 public:
  /// What the layers above must provide so decode outcomes can leave the
  /// medium. Implemented by the Simulator facade, which routes station_up to
  /// StationHost, decoded packets to NetworkLayer / the receiving MAC, and
  /// transmit completions to the sending MAC. Calls arrive exactly where the
  /// monolithic simulator invoked the corresponding hook, so layering does
  /// not perturb event order.
  class Client {
   public:
    virtual ~Client() = default;
    /// Whether `station` is up (a reception at a downed station still
    /// occupies engine state but can never decode).
    [[nodiscard]] virtual bool station_up(StationId station) const = 0;
    /// A unicast reception decoded cleanly at `rx`; the network layer takes
    /// over (end-to-end delivery or forwarding).
    virtual void on_decoded_unicast(const Packet& packet, StationId rx) = 0;
    /// A broadcast reception decoded cleanly at `rx`.
    virtual void on_decoded_broadcast(const Packet& packet, StationId from,
                                      StationId rx, double signal_w) = 0;
    /// A transmission ran to its planned end (never called for aborts);
    /// `any_delivered` reports whether any addressee decoded it.
    virtual void on_transmit_complete(StationId from, const Packet& packet,
                                      StationId to, bool any_delivered) = 0;
  };

  /// `config` must already be finalized (thermal noise derived); the medium
  /// keeps references to the facade-owned config, queue, metrics and
  /// observer list, and installs the thermal floor into `engine`.
  RadioMedium(std::unique_ptr<radio::InterferenceEngine> engine,
              const SimulatorConfig& config, EventQueue& queue,
              Metrics& metrics, const std::vector<SimObserver*>& observers,
              Client& client);

  RadioMedium(const RadioMedium&) = delete;
  RadioMedium& operator=(const RadioMedium&) = delete;

  // -- transmission booking (MacContext transmit paths) ---------------------

  /// Books a data transmission on the air from `start_s` (the transmit()
  /// service minus the context binding: `from` is the bound station).
  void schedule_data(StationId from, const Packet& pkt, StationId to,
                     double power_w, double start_s, double rate_bps,
                     double now_s);

  /// Books a pure noise burst (interference without a packet).
  void schedule_noise(StationId from, double power_w, double start_s,
                      double duration_s, double now_s);

  // -- event handlers (driven by the facade's event loop) -------------------

  void handle_transmit_start(std::uint64_t tx_id);
  void handle_transmit_end(std::uint64_t tx_id);

  // -- teardown support (station churn) -------------------------------------

  /// Cancels every scheduled-but-not-started transmission from `station`
  /// (both queue entries die on the spot).
  void cancel_scheduled_from(StationId station);

  /// Cuts short every transmission `station` has on the air: engine removal,
  /// kAborted reception outcomes, airtime trim, observer notification. Does
  /// NOT call back into any MAC (the sender is being torn down).
  void abort_active_from(StationId station, double now_s);

  /// Marks every still-pending reception record AT `station` as aborted: the
  /// records stay open (conservation and the engine's interference sums need
  /// them) but can no longer deliver, even if the station rejoins first.
  void abort_receptions_at(StationId station);

  /// Releases the station's transmitter serialization clamp to `now_s` (its
  /// booked future airtime was cancelled or aborted).
  void release_transmitter(StationId station, double now_s) {
    DRN_EXPECTS(station < tx_busy_until_s_.size());
    tx_busy_until_s_[station] = now_s;
  }

  // -- queries --------------------------------------------------------------

  [[nodiscard]] std::size_t station_count() const {
    return engine_->station_count();
  }
  [[nodiscard]] bool station_transmitting(StationId s) const {
    return transmitting_count_[s] > 0;
  }
  /// RF-idle rule for mobility: no radiating transmitter and no open
  /// reception record, so no in-flight engine state references the
  /// station's current gains.
  [[nodiscard]] bool rf_idle(StationId s) const {
    return transmitting_count_[s] == 0 && open_rx_count_[s] == 0;
  }
  /// Open reception records at `s` (all outcomes, not just pending).
  [[nodiscard]] int open_receptions_at(StationId s) const {
    return open_rx_count_[s];
  }
  /// Transmissions currently in flight.
  [[nodiscard]] std::size_t active_count() const { return active_.size(); }
  [[nodiscard]] const radio::InterferenceEngine& engine() const {
    return *engine_;
  }
  /// Power gain from transmitter `tx` to receiver `rx`.
  [[nodiscard]] double gain(StationId rx, StationId tx) const {
    return engine_->gain(rx, tx);
  }
  /// Total power impinging on `s` right now (carrier sense).
  [[nodiscard]] radio::Watts power_at(StationId s) const {
    return engine_->power_at(s);
  }

  // -- mobility (dynamics) --------------------------------------------------

  /// Relocates `s`. Precondition: rf_idle(s) — enforced by the facade's
  /// try_move_station, which refuses the move otherwise.
  void station_moved(StationId s, geo::Vec2 position) {
    engine_->station_moved(s, position);
  }

 private:
  static constexpr std::uint32_t kNoList = ~std::uint32_t{0};

  struct ActiveTx {
    Packet packet;
    StationId from = kNoStation;
    StationId to = kNoStation;  // station id, kBroadcast, or kNoStation
                                // (= a pure noise burst: no receptions)
    double power_w = 0.0;
    double start_s = 0.0;
    double end_s = 0.0;
    double rate_bps = 0.0;
    double required_snr = 0.0;  // Eq. 4 threshold at this rate
    /// Its reception records, as an index into rx_lists_ (set when it goes
    /// on the air; kNoList while scheduled and for noise bursts).
    std::uint32_t rx_list = kNoList;
    /// Queue entries for this transmission, cancellable while pending: both
    /// while scheduled, the end alone once in flight (aborts cut it short).
    EventHandle start_ev;
    EventHandle end_ev;
  };

  /// Flat id-sorted set of transmission records, the layout the compensated
  /// engine's active arrays use too. Iteration is one contiguous
  /// ascending-id scan (the exact order the previous std::map produced, so
  /// every downstream draw stays bit-identical); tx ids are assigned
  /// monotonically, so insert is an amortized push_back and erase a short
  /// memmove over the handful of concurrent transmissions.
  class TxSet {
   public:
    struct Entry {
      std::uint64_t id;
      ActiveTx tx;
    };

    ActiveTx& insert(std::uint64_t id, const ActiveTx& tx) {
      const auto it = lower_bound(id);
      DRN_EXPECTS(it == entries_.end() || it->id != id);
      return entries_.insert(it, Entry{id, tx})->tx;
    }

    ActiveTx extract(std::uint64_t id) {
      const auto it = lower_bound(id);
      DRN_EXPECTS(it != entries_.end() && it->id == id);
      const ActiveTx tx = it->tx;
      entries_.erase(it);
      return tx;
    }

    /// Removes entries matching `pred(id, tx)`, visiting in ascending-id
    /// order (side effects in the predicate observe the map-era order).
    template <typename Pred>
    void erase_if(Pred&& pred) {
      std::erase_if(entries_,
                    [&](Entry& e) { return pred(e.id, e.tx); });
    }

    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] auto begin() const { return entries_.begin(); }
    [[nodiscard]] auto end() const { return entries_.end(); }

   private:
    [[nodiscard]] std::vector<Entry>::iterator lower_bound(std::uint64_t id) {
      return std::lower_bound(
          entries_.begin(), entries_.end(), id,
          [](const Entry& e, std::uint64_t v) { return e.id < v; });
    }

    std::vector<Entry> entries_;
  };

  /// One reception record, stored at its engine handle (the engine's
  /// interference(handle) is thermal + all other active transmissions).
  struct Reception {
    std::uint64_t tx_id = 0;
    StationId rx = kNoStation;
    LossType failure = LossType::kNone;
    bool occupies_channel = false;  // holds one of rx's despreading channels
    double signal_w = 0.0;
    double min_sinr = 0.0;  // worst (effective) SINR seen so far
    double required_snr = 0.0;
  };

  /// Cuts short a transmission already on the air (its sender is being torn
  /// down): removes it from the engine now, closes its receptions with
  /// kAborted outcomes, and cancels its pending end event.
  void abort_transmission(std::uint64_t tx_id, double now_s);

  /// `start_s` checked against the station's one transmitter: a
  /// sub-nanosecond overlap with its previous transmission is clamped away.
  [[nodiscard]] double serialized_start(StationId from, double start_s) const;

  /// Books a freshly built transmission (shared tail of schedule_data and
  /// schedule_noise): marks the transmitter busy until its end, assigns the
  /// next id, stores it as scheduled and queues its start/end events.
  void book(const ActiveTx& booked);

  /// The observer facts of `tx` going on the air.
  [[nodiscard]] static TxEvent tx_event(std::uint64_t tx_id,
                                        const ActiveTx& tx);

  /// Tells the observers how reception `r` ended.
  void report_reception(const Reception& r) const;

  /// Opens the reception record for `tx` at receiver `rx` (admission rules:
  /// not transmitting, free despreading channel, initial SINR), stores it at
  /// its engine handle and appends the handle to `tx`'s reception list.
  void open_reception(std::uint64_t tx_id, const ActiveTx& tx, StationId rx);

  /// Effective SINR of reception `h` after optional multiuser subtraction
  /// (k > 0): the residual interference is clamped at the thermal floor.
  [[nodiscard]] double effective_sinr(radio::ReceptionHandle h,
                                      const Reception& r);

  /// Power of the k strongest interferers of `r` on the air, summed
  /// strongest first: every active transmission but r's own and those sent
  /// by r.rx (which never reach its interference), at gain(rx, from) ·
  /// power.
  [[nodiscard]] double cancelled_w(const Reception& r);

  /// Re-tests reception `h` against its threshold after an interference
  /// change and folds the result into min_sinr.
  void note_interference_change(radio::ReceptionHandle h,
                                const ActiveTx& cause);

  /// Marks `r` failed (first failure wins) with the taxonomy type implied by
  /// the interfering transmission `cause`.
  void fail_reception(Reception& r, const ActiveTx& cause);

  /// Interference classification for a transmission relative to receiver rx.
  [[nodiscard]] static LossType classify(const ActiveTx& interferer,
                                         StationId rx);

  [[nodiscard]] Reception& reception_at(radio::ReceptionHandle h) {
    DRN_EXPECTS(h < records_.size());
    return records_[h];
  }

  /// Takes a pooled reception list for a transmission going on the air.
  [[nodiscard]] std::uint32_t acquire_rx_list();
  /// Closes every record on `tx`'s reception list in the engine, visiting
  /// them in open order, and returns the list to the pool.
  template <typename F>
  void close_receptions(const ActiveTx& tx, F&& on_closed);

  std::unique_ptr<radio::InterferenceEngine> engine_;
  const SimulatorConfig& config_;  // facade-owned, finalized
  EventQueue& queue_;              // the shared event core
  Metrics& metrics_;
  const std::vector<SimObserver*>& observers_;  // facade-owned slots
  Client& client_;

  std::uint64_t next_tx_id_ = 1;
  // Pending (scheduled but not started) + in-flight transmissions.
  TxSet scheduled_;
  TxSet active_;
  // In-flight reception records, indexed by engine handle (handles are
  // dense small integers; see radio/interference_engine.hpp).
  std::vector<Reception> records_;
  // Scratch for cancelled_w's interferer powers, kept so a re-test
  // allocates nothing.
  std::vector<double> interferer_w_;
  // Each transmission's reception handles in open order (one per receiver
  // for broadcasts), pooled so a steady stream of transmissions reuses the
  // same few vectors instead of allocating.
  std::vector<std::vector<radio::ReceptionHandle>> rx_lists_;
  std::vector<std::uint32_t> free_rx_lists_;
  std::vector<int> transmitting_count_;   // per station
  std::vector<int> reception_count_;      // per station (despreading channels)
  // Per station: in-flight unicast transmissions addressed TO it. Lets the
  // below-threshold-at-open Type-2 attribution test run in O(1) instead of
  // walking every active transmission per opened reception (a broadcast at
  // large M opens thousands, most of them below threshold).
  std::vector<int> addressed_count_;
  std::vector<double> tx_busy_until_s_;   // per station: serialization check
  // Open reception records at each station (all outcomes, not just pending):
  // while > 0 the engine holds per-reception state referencing the station's
  // gains, so the station must not move.
  std::vector<int> open_rx_count_;
};

}  // namespace drn::sim
