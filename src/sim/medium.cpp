#include "sim/medium.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>

#include "radio/units.hpp"

namespace drn::sim {

RadioMedium::RadioMedium(std::unique_ptr<radio::InterferenceEngine> engine,
                         const SimulatorConfig& config, EventQueue& queue,
                         Metrics& metrics,
                         const std::vector<SimObserver*>& observers,
                         Client& client)
    : engine_(std::move(engine)),
      config_(config),
      queue_(queue),
      metrics_(metrics),
      observers_(observers),
      client_(client),
      transmitting_count_(engine_->station_count(), 0),
      reception_count_(engine_->station_count(), 0),
      addressed_count_(engine_->station_count(), 0),
      tx_busy_until_s_(engine_->station_count(), 0.0),
      open_rx_count_(engine_->station_count(), 0) {
  DRN_EXPECTS(config_.thermal_noise_w > 0.0);  // facade finalizes first
  engine_->set_thermal_noise(radio::Watts{config_.thermal_noise_w});
}

// ---------------------------------------------------------------------------
// Transmission booking

void RadioMedium::schedule_data(StationId from, const Packet& pkt,
                                StationId to, double power_w, double start_s,
                                double rate_bps, double now_s) {
  DRN_EXPECTS(to < station_count() || to == kBroadcast);
  DRN_EXPECTS(to != from);
  DRN_EXPECTS(power_w > 0.0);
  DRN_EXPECTS(rate_bps >= 0.0);
  DRN_EXPECTS(start_s >= now_s);
  DRN_EXPECTS(pkt.size_bits > 0.0);

  ActiveTx tx;
  tx.packet = pkt;
  tx.from = from;
  tx.to = to;
  tx.power_w = power_w;
  tx.rate_bps =
      rate_bps > 0.0 ? rate_bps : config_.criterion.data_rate_bps();
  tx.start_s = serialized_start(from, start_s);
  tx.end_s = tx.start_s + pkt.size_bits / tx.rate_bps;
  tx.required_snr =
      (config_.criterion.margin().to_linear() *
       radio::snr_for_rate_fraction(tx.rate_bps /
                                    config_.criterion.bandwidth_hz()))
          .value();
  book(tx);
}

void RadioMedium::schedule_noise(StationId from, double power_w,
                                 double start_s, double duration_s,
                                 double now_s) {
  DRN_EXPECTS(power_w > 0.0);
  DRN_EXPECTS(duration_s > 0.0);
  DRN_EXPECTS(start_s >= now_s);

  // Noise uses the one transmitter too, serialized like data.
  ActiveTx tx;
  tx.from = from;
  tx.to = kNoStation;  // addressed to nobody: pure interference
  tx.power_w = power_w;
  tx.rate_bps = 0.0;
  tx.start_s = serialized_start(from, start_s);
  tx.end_s = tx.start_s + duration_s;
  tx.required_snr = 0.0;
  book(tx);
}

double RadioMedium::serialized_start(StationId from, double start_s) const {
  // One transmitter per station: transmissions must be serialized by the
  // MAC. A sub-nanosecond shortfall is floating-point noise from computing
  // the same instant two ways (e.g. 0.01*i vs a running sum of 0.01) and is
  // clamped rather than rejected.
  if (start_s < tx_busy_until_s_[from] &&
      tx_busy_until_s_[from] - start_s < 1e-9) {
    start_s = tx_busy_until_s_[from];
  }
  DRN_EXPECTS(start_s >= tx_busy_until_s_[from]);
  return start_s;
}

void RadioMedium::book(const ActiveTx& booked) {
  tx_busy_until_s_[booked.from] = booked.end_s;
  const std::uint64_t tx_id = next_tx_id_++;
  ActiveTx& tx = scheduled_.insert(tx_id, booked);

  Event start;
  start.time_s = tx.start_s;
  start.kind = EventKind::kTransmitStart;
  start.tx_id = tx_id;
  tx.start_ev = queue_.push(start);

  Event end;
  end.time_s = tx.end_s;
  end.kind = EventKind::kTransmitEnd;
  end.tx_id = tx_id;
  tx.end_ev = queue_.push(end);
}

// ---------------------------------------------------------------------------
// Physics

LossType RadioMedium::classify(const ActiveTx& interferer, StationId rx) {
  if (interferer.from == rx) return LossType::kType3;
  if (interferer.to == rx) return LossType::kType2;
  return LossType::kType1;
}

void RadioMedium::fail_reception(Reception& r, const ActiveTx& cause) {
  if (r.failure == LossType::kNone) r.failure = classify(cause, r.rx);
}

double RadioMedium::effective_sinr(radio::ReceptionHandle h,
                                   const Reception& r) {
  const double interference = engine_->interference(h).value();
  if (config_.multiuser_subtract_k == 0) return r.signal_w / interference;
  const double residual = std::max(config_.thermal_noise_w,
                                   interference - cancelled_w(r));
  return r.signal_w / residual;
}

double RadioMedium::cancelled_w(const Reception& r) {
  // Idealised multiuser detection: the receiver reconstructs the k
  // strongest interferers and subtracts them.
  interferer_w_.clear();
  for (const auto& e : active_) {
    if (e.id == r.tx_id || e.tx.from == r.rx) continue;
    interferer_w_.push_back(engine_->gain(r.rx, e.tx.from) * e.tx.power_w);
  }
  const auto top = interferer_w_.begin() +
                   std::min<std::ptrdiff_t>(config_.multiuser_subtract_k,
                                            std::ssize(interferer_w_));
  std::partial_sort(interferer_w_.begin(), top, interferer_w_.end(),
                    std::greater<>());
  double sum = 0.0;
  for (auto it = interferer_w_.begin(); it != top; ++it) sum += *it;
  return sum;
}

void RadioMedium::note_interference_change(radio::ReceptionHandle h,
                                           const ActiveTx& cause) {
  Reception& r = reception_at(h);
  const double sinr = effective_sinr(h, r);
  r.min_sinr = std::min(r.min_sinr, sinr);
  if (r.failure == LossType::kNone && sinr < r.required_snr)
    fail_reception(r, cause);
}

void RadioMedium::open_reception(std::uint64_t tx_id, const ActiveTx& tx,
                                 StationId rx) {
  Reception r;
  r.tx_id = tx_id;
  r.rx = rx;
  r.signal_w = engine_->gain(rx, tx.from) * tx.power_w;
  r.required_snr = tx.required_snr;
  const radio::ReceptionHandle h = engine_->open_reception(tx_id, rx, {});
  if (records_.size() <= h) records_.resize(h + 1);

  if (!client_.station_up(rx)) {
    // The receiver is down (churn): the record still exists — conservation
    // and the engine's interference accounting need it — but nothing can be
    // decoded at a dead station, and no despreading channel is consumed.
    r.failure = LossType::kAborted;
  } else if (station_transmitting(rx)) {
    r.failure = LossType::kType3;
  } else if (reception_count_[rx] >= config_.despreading_channels) {
    r.failure = LossType::kType2;  // all despreading channels busy
  } else {
    r.occupies_channel = true;
    ++reception_count_[rx];
  }

  r.min_sinr = effective_sinr(h, r);
  if (r.failure == LossType::kNone && r.min_sinr < r.required_snr) {
    // Below threshold from the first instant: attribute the loss to an
    // already-active transmission addressed to the same receiver (Type 2) if
    // one exists, otherwise to third-party interference / sheer lack of
    // signal (Type 1). addressed_count_ mirrors the active set, so the test
    // is O(1); subtract this transmission itself when it is the one
    // addressed to rx.
    const int others = addressed_count_[rx] - (tx.to == rx ? 1 : 0);
    r.failure = others > 0 ? LossType::kType2 : LossType::kType1;
  }

  records_[h] = r;
  ++open_rx_count_[rx];
  rx_lists_[tx.rx_list].push_back(h);
}

std::uint32_t RadioMedium::acquire_rx_list() {
  if (free_rx_lists_.empty()) {
    rx_lists_.emplace_back();
    return static_cast<std::uint32_t>(rx_lists_.size() - 1);
  }
  const std::uint32_t list = free_rx_lists_.back();
  free_rx_lists_.pop_back();
  return list;
}

template <typename F>
void RadioMedium::close_receptions(const ActiveTx& tx, F&& on_closed) {
  std::vector<radio::ReceptionHandle>& handles = rx_lists_[tx.rx_list];
  for (const radio::ReceptionHandle h : handles) {
    engine_->close_reception(h);
    Reception& r = records_[h];
    if (r.occupies_channel) --reception_count_[r.rx];
    --open_rx_count_[r.rx];
    on_closed(r);
  }
  handles.clear();
  free_rx_lists_.push_back(tx.rx_list);
}

TxEvent RadioMedium::tx_event(std::uint64_t tx_id, const ActiveTx& tx) {
  return TxEvent{.tx_id = tx_id,
                 .from = tx.from,
                 .to = tx.to,
                 .power_w = tx.power_w,
                 .start_s = tx.start_s,
                 .end_s = tx.end_s,
                 .rate_bps = tx.rate_bps,
                 .packet = tx.packet.id};
}

void RadioMedium::report_reception(const Reception& r) const {
  if (observers_.empty()) return;
  const RxEvent ev{.tx_id = r.tx_id,
                   .rx = r.rx,
                   .delivered = r.failure == LossType::kNone,
                   .loss = r.failure,
                   .min_sinr = r.min_sinr,
                   .required_snr = r.required_snr,
                   .signal_w = r.signal_w};
  for (SimObserver* o : observers_) o->on_reception_complete(ev);
}

void RadioMedium::handle_transmit_start(std::uint64_t tx_id) {
  ActiveTx& tx = active_.insert(tx_id, scheduled_.extract(tx_id));
  const bool noise = tx.to == kNoStation;
  if (tx.to < station_count()) ++addressed_count_[tx.to];

  metrics_.record_airtime(tx.from, tx.end_s - tx.start_s);
  if (noise) {
    metrics_.record_noise_burst();
  } else if (tx.to == kBroadcast) {
    metrics_.record_broadcast();
  } else {
    metrics_.record_hop_attempt();
  }
  ++transmitting_count_[tx.from];

  if (!observers_.empty()) {
    const TxEvent ev = tx_event(tx_id, tx);
    for (SimObserver* o : observers_) o->on_transmit_start(ev);
  }

  // The new signal raises the interference of every in-flight reception it
  // reaches and kills any reception in progress at the (now radiating)
  // sender itself; the engine walks them and notifies us per reception.
  // Both visitors capture 16 bytes, within std::function's small buffer, so
  // a transmit start allocates nothing for them.
  engine_->transmit_started(
      tx_id, tx.from, radio::Watts{tx.power_w},
      [this, &tx](radio::ReceptionHandle h) {
        fail_reception(reception_at(h), tx);  // Type 3: own transmitter up
      },
      [this, &tx](radio::ReceptionHandle h, radio::Watts /*watts*/) {
        note_interference_change(h, tx);
      });

  // A noise burst carries nothing: it interferes (above) but opens no
  // reception.
  if (noise) return;

  // Open the reception record(s).
  tx.rx_list = acquire_rx_list();
  if (tx.to == kBroadcast) {
    rx_lists_[tx.rx_list].reserve(station_count() - 1);
    for (StationId rx = 0; rx < station_count(); ++rx) {
      if (rx == tx.from) continue;
      open_reception(tx_id, tx, rx);
    }
  } else {
    open_reception(tx_id, tx, tx.to);
  }
}

void RadioMedium::handle_transmit_end(std::uint64_t tx_id) {
  const ActiveTx tx = active_.extract(tx_id);
  --transmitting_count_[tx.from];
  if (tx.to < station_count()) --addressed_count_[tx.to];

  // The signal leaves the air: the engine lowers everyone else's
  // interference (receptions at the sender's own station never had this
  // contribution added — they die via Type 3 — and the engine skips them
  // symmetrically). Interference only drops here, so min_sinr cannot move.
  engine_->transmit_ended(tx_id, {});

  if (tx.to == kNoStation) {
    // Noise burst: nothing was receivable; just tell the emitter.
    client_.on_transmit_complete(tx.from, tx.packet, tx.to, false);
    return;
  }

  bool any_delivered = false;
  close_receptions(tx, [&](const Reception& r) {
    const bool delivered = r.failure == LossType::kNone;
    any_delivered |= delivered;
    report_reception(r);

    if (tx.to == kBroadcast) {
      if (delivered) {
        metrics_.record_broadcast_reception();
        client_.on_decoded_broadcast(tx.packet, tx.from, r.rx, r.signal_w);
      }
      return;
    }

    if (delivered) {
      metrics_.record_hop_success(
          radio::to_db(r.min_sinr / r.required_snr));
      client_.on_decoded_unicast(tx.packet, r.rx);
    } else {
      metrics_.record_hop_loss(r.failure);
    }
  });

  client_.on_transmit_complete(tx.from, tx.packet, tx.to, any_delivered);
}

// ---------------------------------------------------------------------------
// Teardown support (station churn)

void RadioMedium::abort_transmission(std::uint64_t tx_id, double now_s) {
  const ActiveTx tx = active_.extract(tx_id);
  --transmitting_count_[tx.from];
  if (tx.to < station_count()) --addressed_count_[tx.to];
  // Airtime was booked for the full planned duration at start; give back the
  // part that never aired.
  metrics_.trim_airtime(tx.from, tx.end_s - now_s);
  const bool was_pending = queue_.cancel(tx.end_ev);
  DRN_EXPECTS(was_pending);  // the tx was in flight, so its end lay ahead

  // Observers first (the auditor truncates its record of this transmission
  // to now before the aborted RxEvents below arrive).
  if (!observers_.empty()) {
    const TxEvent ev = tx_event(tx_id, tx);
    for (SimObserver* o : observers_) o->on_transmit_aborted(ev, now_s);
  }

  // The signal leaves the air early; interference drops exactly as at a
  // normal end, through the same engine path (no ad-hoc subtraction).
  engine_->transmit_ended(tx_id, {});

  if (tx.to == kNoStation) return;  // noise: no reception records

  close_receptions(tx, [&](Reception& r) {
    // A truncated packet is undecodable regardless of its SINR so far.
    if (r.failure == LossType::kNone) r.failure = LossType::kAborted;
    report_reception(r);
    if (tx.to != kBroadcast) metrics_.record_hop_loss(r.failure);
  });
  // No completion upcall: the sender's MAC is being torn down right now.
}

void RadioMedium::cancel_scheduled_from(StationId station) {
  // Scheduled-but-not-started transmissions from the station never happen:
  // both their queue entries are cancelled on the spot.
  scheduled_.erase_if([this, station](std::uint64_t /*id*/, ActiveTx& tx) {
    if (tx.from != station) return false;
    queue_.cancel(tx.start_ev);
    queue_.cancel(tx.end_ev);
    return true;
  });
}

void RadioMedium::abort_active_from(StationId station, double now_s) {
  // Transmissions already on the air are cut short, in ascending-id order.
  std::vector<std::uint64_t> airborne;
  for (const auto& e : active_)
    if (e.tx.from == station) airborne.push_back(e.id);
  for (const std::uint64_t id : airborne) abort_transmission(id, now_s);
}

void RadioMedium::abort_receptions_at(StationId station) {
  // Receptions in progress at the station die with it. The records stay
  // open (the engine keeps accounting the interference they see, and
  // conservation still expects their outcomes at the transmissions' ends)
  // but can no longer deliver — even if the station rejoins first.
  for (const auto& e : active_) {
    if (e.tx.rx_list == kNoList) continue;
    for (const radio::ReceptionHandle h : rx_lists_[e.tx.rx_list]) {
      Reception& r = records_[h];
      if (r.rx == station && r.failure == LossType::kNone)
        r.failure = LossType::kAborted;
    }
  }
}

}  // namespace drn::sim
