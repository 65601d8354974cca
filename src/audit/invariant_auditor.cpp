#include "audit/invariant_auditor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "common/expects.hpp"
#include "radio/reception.hpp"
#include "radio/units.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace drn::audit {

namespace {

/// Relative tolerance for floating-point identities. The compensated
/// interference engine keeps running sums exact, so the SINR identities hold
/// to rounding error and the tolerance is tight.
constexpr double kRelTol = 1e-12;

/// How many violations keep full detail text (all are always counted).
constexpr std::size_t kMaxRecordedViolations = 64;

/// Open-interval overlap: shared boundary instants (a transmission ending
/// exactly when another starts) do not count, matching the event queue's
/// end-before-start simultaneity rule.
bool overlaps(double a_start, double a_end, double b_start, double b_end) {
  return a_start < b_end && b_start < a_end;
}

const char* loss_name(sim::LossType type) {
  switch (type) {
    case sim::LossType::kNone: return "none";
    case sim::LossType::kType1: return "type1";
    case sim::LossType::kType2: return "type2";
    case sim::LossType::kType3: return "type3";
    case sim::LossType::kAborted: return "aborted";
  }
  return "?";
}

std::string describe(const sim::TxEvent& tx) {
  return "tx " + std::to_string(tx.tx_id) + " from " + std::to_string(tx.from);
}

std::string describe(const sim::RxEvent& rx) {
  return "rx of tx " + std::to_string(rx.tx_id) + " at " +
         std::to_string(rx.rx);
}

/// check() evidence "<event> <what>", built only when called.
template <class Event>
auto about(const Event& ev, const char* what) {
  return [&ev, what] { return describe(ev) + " " + what; };
}

}  // namespace

InvariantAuditor::InvariantAuditor(AuditConfig config)
    : config_(config),
      own_tx_(config.stations),
      occupancy_(config.stations) {
  DRN_EXPECTS(config_.stations > 0);
  DRN_EXPECTS(config_.despreading_channels > 0);
  DRN_EXPECTS(config_.thermal_noise.value() > 0.0);
}

AuditConfig config_from(const sim::Simulator& sim) {
  AuditConfig cfg;
  cfg.stations = sim.station_count();
  cfg.despreading_channels = sim.config().despreading_channels;
  cfg.thermal_noise = units::Watts{sim.config().thermal_noise_w};
  cfg.bandwidth = sim.config().criterion.bandwidth();
  cfg.margin = sim.config().criterion.margin();
  return cfg;
}

InvariantAuditor::InvariantAuditor(const sim::Simulator& sim)
    : InvariantAuditor(config_from(sim)) {}

void InvariantAuditor::mix(std::uint64_t word) {
  // FNV-1a over the word's 8 bytes, little-endian order.
  for (int i = 0; i < 8; ++i) {
    event_hash_ ^= (word >> (8 * i)) & 0xffu;
    event_hash_ *= 1099511628211ull;  // FNV-1a 64-bit prime
  }
}

void InvariantAuditor::mix_double(double x) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  mix(bits);
}

template <class Detail>
void InvariantAuditor::check(bool pass, const char* invariant, double time_s,
                             const Detail& detail) {
  ++checks_run_;
  if (pass) return;
  ++total_violations_;
  ++counts_[invariant];
  if (violations_.size() < kMaxRecordedViolations)
    violations_.push_back(Violation{invariant, detail(), time_s});
}

double InvariantAuditor::min_active_start() const {
  double min_start = std::numeric_limits<double>::infinity();
  for (const auto& [id, rec] : active_)
    min_start = std::min(min_start, rec.ev.start_s);
  return min_start;
}

void InvariantAuditor::note_own_transmission(const sim::TxEvent& tx) {
  // One transmitter per station: this station's transmissions (data or
  // noise) must not overlap each other.
  auto& own = own_tx_[tx.from];
  bool serialized = true;
  for (const Interval& i : own)
    serialized &= !overlaps(i.start_s, i.end_s, tx.start_s, tx.end_s);
  check(serialized, "tx-serialization", tx.start_s,
        about(tx, "overlaps an earlier transmission of the same station"));
  own.push_back(Interval{tx.start_s, tx.end_s});

  max_airtime_s_ = std::max(max_airtime_s_, tx.end_s - tx.start_s);
  // A past own-tx interval only matters while some reception could still
  // overlap it; anything ending more than one max airtime ago cannot.
  const double horizon = tx.start_s - max_airtime_s_;
  std::erase_if(own, [horizon](const Interval& i) { return i.end_s < horizon; });
}

void InvariantAuditor::on_transmit_start(const sim::TxEvent& tx) {
  mix(1);  // event-kind tag
  mix(tx.tx_id);
  mix(tx.from);
  mix(tx.to);
  mix_double(tx.power_w);
  mix_double(tx.start_s);
  mix_double(tx.end_s);
  mix_double(tx.rate_bps);
  mix(tx.packet);

  check(tx.start_s >= last_event_s_, "event-monotonicity", tx.start_s,
        about(tx, "starts in the past of the event stream"));
  last_event_s_ = std::max(last_event_s_, tx.start_s);

  if (tx.to == kNoStation) {
    // A pure noise burst (dynamics jammer): it occupies the transmitter like
    // any transmission but is rateless, carries no packet and produces no
    // reception outcomes.
    check(tx.end_s > tx.start_s && tx.power_w > 0.0, "tx-wellformed",
          tx.start_s, about(tx, "(noise) has a non-positive airtime or power"));
    check(tx.from < config_.stations, "tx-wellformed", tx.start_s,
          about(tx, "(noise) has an out-of-range emitter"));
    if (tx.from >= config_.stations) return;
    note_own_transmission(tx);
    ++noise_starts_;
    return;
  }

  check(tx.end_s > tx.start_s && tx.power_w > 0.0 && tx.rate_bps > 0.0,
        "tx-wellformed", tx.start_s,
        about(tx, "has a non-positive airtime, power or rate"));
  check(tx.from < config_.stations &&
            (tx.to < config_.stations || tx.to == kBroadcast) &&
            tx.to != tx.from,
        "tx-wellformed", tx.start_s, about(tx, "has out-of-range endpoints"));
  if (tx.from >= config_.stations) return;  // cannot index further checks

  note_own_transmission(tx);

  TxRecord rec;
  rec.ev = tx;
  rec.expected_rx = tx.to == kBroadcast ? config_.stations - 1 : 1;
  if (tx.to == kBroadcast) {
    rec.seen_at.assign(config_.stations, false);
    ++broadcast_starts_;
  } else {
    ++unicast_starts_;
  }
  const bool fresh = active_.emplace(tx.tx_id, std::move(rec)).second;
  check(fresh, "conservation", tx.start_s,
        about(tx, "reuses a live transmission id"));
}

void InvariantAuditor::check_reception_identity(const TxRecord& rec,
                                                const sim::RxEvent& rx) {
  const sim::TxEvent& tx = rec.ev;
  if (tx.to == kBroadcast) {
    check(rx.rx < config_.stations && rx.rx != tx.from, "conservation",
          tx.end_s, about(rx, "reported at an impossible station"));
  } else {
    check(rx.rx == tx.to, "conservation", tx.end_s,
          about(rx, "reported at a station the packet was not sent to"));
  }
  check(rx.delivered == (rx.loss == sim::LossType::kNone), "outcome-exclusive",
        tx.end_s, [&] {
          return describe(rx) + " is both delivered and lost (" +
                 loss_name(rx.loss) + ")";
        });
}

void InvariantAuditor::check_sinr(const TxRecord& rec, const sim::RxEvent& rx) {
  const double t = rec.ev.end_s;
  const double slack = 1.0 + kRelTol;

  check(rx.signal_w >= 0.0 && rx.required_snr > 0.0, "sinr-consistency", t,
        about(rx, "reports a negative signal or non-positive threshold"));

  // Eq. 5-6: interference only ever adds to thermal noise, so no reported
  // SINR can exceed the zero-interference bound signal/thermal. (Multiuser
  // subtraction clamps its residual at the thermal floor, preserving this.)
  const units::LinearGain zero_interference_bound =
      units::Watts{rx.signal_w} / config_.thermal_noise;
  check(rx.min_sinr <= zero_interference_bound.value() * slack,
        "sinr-consistency", t, [&] {
          return describe(rx) +
                 " reports an SINR above its zero-interference bound of " +
                 units::format(zero_interference_bound);
        });

  // Eq. 3-4: a delivered packet held SINR at or above the threshold for its
  // whole airtime.
  if (rx.delivered) {
    check(rx.min_sinr * slack >= rx.required_snr, "sinr-threshold", t,
          about(rx, "was delivered below its required SINR"));
  }

  // Eq. 4 at this transmission's rate: the threshold the simulator applied
  // must equal margin * snr_for_rate_fraction(rate / W).
  if (config_.bandwidth.value() > 0.0 && rec.ev.rate_bps > 0.0) {
    const units::LinearGain expected =
        config_.margin.to_linear() *
        radio::snr_for_rate_fraction(rec.ev.rate_bps /
                                     config_.bandwidth.value());
    const bool matches = rx.required_snr <= expected.value() * slack &&
                         rx.required_snr * slack >= expected.value();
    check(matches, "required-snr", t, [&] {
      return describe(rx) + " was held to a threshold inconsistent with " +
             "its rate (Eq. 4 expects " + units::format(expected) + ")";
    });
  }
}

void InvariantAuditor::check_half_duplex(const TxRecord& rec,
                                          const sim::RxEvent& rx) {
  if (!rx.delivered || rx.rx >= config_.stations) return;
  const sim::TxEvent& tx = rec.ev;
  bool clean = true;
  for (const Interval& own : own_tx_[rx.rx])
    clean &= !overlaps(own.start_s, own.end_s, tx.start_s, tx.end_s);
  check(clean, "half-duplex", tx.end_s,
        about(rx, "delivered while the receiver was transmitting (Type 3)"));
}

void InvariantAuditor::check_despreading_cap(const TxRecord& rec,
                                              const sim::RxEvent& rx) {
  // Delivered and Type 1 outcomes both held one of the receiver's
  // despreading channels for the packet's whole airtime (a Type 3 reception
  // never gets a channel; a Type 2 may or may not have). So among
  // {delivered, type1} receptions at one station, no instant may be covered
  // by more than despreading_channels intervals.
  if (rx.rx >= config_.stations) return;
  if (!rx.delivered && rx.loss != sim::LossType::kType1) return;
  const sim::TxEvent& tx = rec.ev;
  const int cap = config_.despreading_channels;
  auto& pending = occupancy_[rx.rx];

  // Max clique of an interval set = max over intervals of how many intervals
  // contain that interval's start. Completions arrive in end-time order, so
  // count this interval's already-completed containers now and let longer
  // receptions still in flight increment it (and each stored count) as they
  // complete.
  const auto check_cap = [&](int stabbing) {
    check(stabbing <= cap, "despreading-cap", tx.end_s, [&] {
      std::ostringstream what;
      what << "station " << rx.rx << " held " << stabbing
           << " simultaneous receptions with only " << cap
           << " despreading channels";
      return what.str();
    });
  };
  PendingOccupancy mine{tx.start_s, tx.end_s, 1};
  for (PendingOccupancy& p : pending) {
    if (p.start_s <= tx.start_s && tx.start_s < p.end_s) ++mine.stabbing;
    if (tx.start_s <= p.start_s && p.start_s < tx.end_s) {
      ++p.stabbing;
      check_cap(p.stabbing);
    }
  }
  check_cap(mine.stabbing);
  pending.push_back(mine);

  // A stored interval is dead once no in-flight transmission can still
  // produce a reception starting inside it: its own count can no longer
  // grow, and it can no longer contain a future start instant. In-flight
  // receptions start no earlier than min_active_start, so that is exactly
  // when the interval ends at or before that bound.
  const double min_start = min_active_start();
  std::erase_if(pending, [min_start](const PendingOccupancy& p) {
    return p.end_s <= min_start;
  });
}

void InvariantAuditor::on_reception_complete(const sim::RxEvent& rx) {
  mix(2);  // event-kind tag
  mix(rx.tx_id);
  mix(rx.rx);
  mix(rx.delivered ? 1 : 0);
  mix(static_cast<std::uint64_t>(rx.loss));
  mix_double(rx.min_sinr);
  mix_double(rx.required_snr);
  mix_double(rx.signal_w);

  auto it = active_.find(rx.tx_id);
  if (it == active_.end()) {
    check(false, "conservation", last_event_s_,
          about(rx, "references an unknown or already-completed tx"));
    return;
  }
  TxRecord& rec = it->second;
  const sim::TxEvent& tx = rec.ev;

  // Reception outcomes surface exactly when their transmission ends.
  check(tx.end_s >= last_event_s_, "event-monotonicity", tx.end_s,
        about(rx, "completes in the past of the event stream"));
  last_event_s_ = std::max(last_event_s_, tx.end_s);

  check_reception_identity(rec, rx);

  // Exactly-once accounting per (transmission, receiver).
  bool duplicate = false;
  if (tx.to == kBroadcast && rx.rx < rec.seen_at.size()) {
    duplicate = rec.seen_at[rx.rx];
    rec.seen_at[rx.rx] = true;
  }
  check(!duplicate, "conservation", tx.end_s,
        about(rx, "is a second outcome of one broadcast"));

  check_sinr(rec, rx);
  check_half_duplex(rec, rx);
  check_despreading_cap(rec, rx);

  if (tx.to == kBroadcast) {
    if (rx.delivered) ++broadcast_delivered_;
  } else {
    if (rx.delivered) {
      ++unicast_delivered_;
    } else {
      ++unicast_losses_[static_cast<std::size_t>(rx.loss)];
    }
  }

  if (++rec.seen_rx >= rec.expected_rx) active_.erase(it);
}

void InvariantAuditor::on_transmit_aborted(const sim::TxEvent& tx,
                                           double time_s) {
  mix(3);  // event-kind tag
  mix(tx.tx_id);
  mix(tx.from);
  mix_double(time_s);

  check(time_s >= last_event_s_, "event-monotonicity", time_s,
        about(tx, "is aborted in the past of the event stream"));
  last_event_s_ = std::max(last_event_s_, time_s);
  check(time_s >= tx.start_s && time_s < tx.end_s, "abort-wellformed", time_s,
        about(tx, "is aborted outside its airtime"));

  // The signal left the air at time_s, not at the planned end: truncate the
  // sender's transmit interval so later receptions at a rejoined station are
  // not falsely flagged as half-duplex breaches. Serialization guarantees at
  // most one own interval contains time_s.
  if (tx.from < config_.stations) {
    for (Interval& i : own_tx_[tx.from])
      if (i.start_s <= time_s && time_s < i.end_s) i.end_s = time_s;
  }

  if (tx.to == kNoStation) return;  // noise: no record, no outcomes expected

  const auto it = active_.find(tx.tx_id);
  check(it != active_.end(), "conservation", time_s,
        about(tx, "is aborted but unknown or already completed"));
  if (it == active_.end()) return;
  // The kAborted reception outcomes that follow immediately complete at
  // time_s; move the record's end so monotonicity and finalize() agree.
  it->second.ev.end_s = time_s;
}

void InvariantAuditor::finalize(double cutoff_s) {
  for (const auto& [id, rec] : active_) {
    // A transmission still on the air at the cutoff is legitimately
    // unresolved; one that ended inside the audited window is not.
    check(rec.ev.end_s > cutoff_s, "conservation", rec.ev.end_s, [&] {
      std::ostringstream what;
      what << "tx " << id << " ended at " << rec.ev.end_s << " but reported "
           << rec.seen_rx << "/" << rec.expected_rx << " reception outcomes";
      return what.str();
    });
  }
}

void InvariantAuditor::cross_check(const sim::Metrics& m) {
  const auto expect_eq = [this](const char* what, std::uint64_t metrics_says,
                                std::uint64_t audit_says) {
    check(metrics_says == audit_says, "metrics-crosscheck", last_event_s_, [&] {
      std::ostringstream detail;
      detail << what << ": metrics counted " << metrics_says
             << ", the event stream implies " << audit_says;
      return detail.str();
    });
  };
  expect_eq("hop attempts", m.hop_attempts(), unicast_starts_);
  expect_eq("hop successes", m.hop_successes(), unicast_delivered_);
  expect_eq("type 1 losses", m.losses(sim::LossType::kType1),
            unicast_losses_[1]);
  expect_eq("type 2 losses", m.losses(sim::LossType::kType2),
            unicast_losses_[2]);
  expect_eq("type 3 losses", m.losses(sim::LossType::kType3),
            unicast_losses_[3]);
  expect_eq("aborted losses", m.losses(sim::LossType::kAborted),
            unicast_losses_[4]);
  expect_eq("broadcasts sent", m.broadcasts_sent(), broadcast_starts_);
  expect_eq("broadcast receptions", m.broadcast_receptions(),
            broadcast_delivered_);
  expect_eq("noise bursts", m.noise_bursts(), noise_starts_);
}

std::vector<Violation> cross_check_engine(const sim::TraceRecorder& run,
                                          const sim::TraceRecorder& reference,
                                          double sinr_rel_bound) {
  DRN_EXPECTS(sinr_rel_bound > 0.0);
  for (const sim::TraceRecorder* trace : {&run, &reference}) {
    DRN_EXPECTS(trace->dropped_transmissions() == 0);
    DRN_EXPECTS(trace->dropped_receptions() == 0);
  }
  using Key = std::pair<std::uint64_t, StationId>;
  const auto by_key = [](const sim::TraceRecorder& trace) {
    std::map<Key, const sim::RxEvent*> out;
    for (const sim::RxEvent& rx : trace.receptions())
      out[{rx.tx_id, rx.rx}] = &rx;
    return out;
  };
  const auto mine = by_key(run);
  const auto theirs = by_key(reference);
  const auto rel_close = [sinr_rel_bound](double a, double b) {
    const double scale = std::max(std::abs(a), std::abs(b));
    return std::abs(a - b) <= sinr_rel_bound * std::max(scale, 1e-300);
  };

  std::vector<Violation> out;
  const auto flag = [&out](const Key& key, const std::string& what) {
    std::ostringstream who;
    who << "rx of tx " << key.first << " at " << key.second << " " << what;
    out.push_back(Violation{"engine-crosscheck", who.str(), 0.0});
  };
  for (const auto& [key, ref] : theirs) {
    const auto it = mine.find(key);
    if (it == mine.end()) {
      flag(key, "exists only in the reference engine's run");
      continue;
    }
    const sim::RxEvent& rx = *it->second;
    if (!rel_close(rx.min_sinr, ref->min_sinr)) {
      flag(key, "min-SINR disagrees beyond the configured bound (" +
                    std::to_string(rx.min_sinr) + " vs reference " +
                    std::to_string(ref->min_sinr) + ")");
    }
    // A flipped outcome is only legitimate when the reference call was
    // borderline: its SINR within the bound of the threshold. Anything else
    // means the approximation changed physics, not rounding.
    if (rx.delivered != ref->delivered &&
        !rel_close(ref->min_sinr, ref->required_snr)) {
      flag(key, "outcome flipped on a non-borderline reception");
    }
  }
  for (const auto& entry : mine) {
    if (!theirs.contains(entry.first))
      flag(entry.first, "exists only in this engine's run");
  }
  return out;
}

std::string InvariantAuditor::report() const {
  std::ostringstream os;
  os << "invariant audit: " << checks_run_ << " checks, " << total_violations_
     << " violations\n";
  for (const auto& [invariant, count] : counts_)
    os << "  " << invariant << ": " << count << "\n";
  for (const Violation& v : violations_)
    os << "  [" << v.invariant << "] t=" << v.time_s << " " << v.detail
       << "\n";
  return os.str();
}

}  // namespace drn::audit
