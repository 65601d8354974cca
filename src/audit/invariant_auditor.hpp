// Independent runtime re-derivation of the simulator's physics invariants.
//
// The simulator promises a set of identities (docs: DESIGN.md "Audited
// invariants"): event-time monotonicity, per-station transmit serialization,
// half-duplex reception (the paper's Type 3 taxonomy), the despreading
// channel cap (Type 2), SINR consistency of every reported reception with
// Eq. 3-6, and exactly-once reception accounting per transmission. Nothing
// in the simulator itself re-checks them — a silent regression in the
// incremental interference bookkeeping would corrupt every result downstream.
//
// InvariantAuditor is a passive SimObserver that re-derives each invariant
// from the Tx/Rx event stream alone, sharing no state or code path with the
// physics it audits. It is O(active transmissions) per event, prunes its
// history and formats evidence only for a failed check, so it can ride along
// on full-length sweeps: drn_sim at M = 1024 with 1 s beacons and churn
// (22.5 M checks) runs in 1.5 s audited against 0.9-1.1 s unaudited
// (RelWithDebInfo, 4 vCPU). Wire it up with
// Simulator::add_observer (observers are never detached), run, then
// finalize() and cross_check() against sim::Metrics; ok() reports the
// verdict and report() the evidence.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/metrics.hpp"
#include "sim/observer.hpp"

namespace drn::sim {
class Simulator;
class TraceRecorder;
}  // namespace drn::sim

namespace drn::audit {

/// Facts about the simulation the auditor checks against. Everything here is
/// configuration, not simulator state: the auditor must not peek at the
/// internals it is auditing.
struct AuditConfig {
  /// Number of stations (bounds StationId, sizes broadcast conservation).
  std::size_t stations = 0;
  /// Parallel despreading channels per receiver (Type 2 cap).
  int despreading_channels = 8;
  /// Thermal noise floor. Upper-bounds any reported SINR via
  /// signal / thermal_noise (interference only adds noise; multiuser
  /// subtraction clamps its residual at the thermal floor).
  units::Watts thermal_noise;
  /// Radio design point for re-deriving required_snr from a transmission's
  /// rate (Eq. 4 at margin). bandwidth <= 0 disables that check.
  units::Hertz bandwidth;
  units::Decibels margin;
};

/// The AuditConfig a simulator's public configuration implies.
[[nodiscard]] AuditConfig config_from(const sim::Simulator& sim);

/// One observed breach of an invariant.
struct Violation {
  /// Stable key, e.g. "half-duplex", "despreading-cap", "metrics-crosscheck".
  std::string invariant;
  std::string detail;
  double time_s = 0.0;
};

class InvariantAuditor final : public sim::SimObserver {
 public:
  explicit InvariantAuditor(AuditConfig config);
  /// Derives the AuditConfig from a simulator's public configuration.
  explicit InvariantAuditor(const sim::Simulator& sim);

  void on_transmit_start(const sim::TxEvent& tx) override;
  void on_reception_complete(const sim::RxEvent& rx) override;
  /// Dynamics teardown cut a transmission short at `time_s`: the auditor
  /// truncates its record (and the sender's transmit interval) to the actual
  /// end before the kAborted reception outcomes arrive, so monotonicity and
  /// half-duplex keep holding across churn.
  void on_transmit_aborted(const sim::TxEvent& tx, double time_s) override;

  /// Closes the audit at simulated time `cutoff_s`: every transmission that
  /// ended at or before the cutoff must have produced its full set of
  /// reception outcomes (transmissions still in flight at the cutoff are
  /// legitimately unresolved). Call after Simulator::run_until.
  void finalize(double cutoff_s);

  /// Cross-checks the auditor's independently derived counters against the
  /// simulator's own Metrics (hop attempts/successes, per-type losses,
  /// broadcast accounting). Call after finalize().
  void cross_check(const sim::Metrics& metrics);

  /// True while no invariant has been breached.
  [[nodiscard]] bool ok() const { return total_violations_ == 0; }
  [[nodiscard]] std::uint64_t violation_count() const {
    return total_violations_;
  }
  /// Individual invariant evaluations performed so far.
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  /// Violations with recorded detail (the first 64; all are counted).
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  /// Total breach count per invariant key.
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counts_by_invariant()
      const {
    return counts_;
  }

  /// Human-readable verdict: one line per invariant plus recorded details.
  [[nodiscard]] std::string report() const;

  /// Order-sensitive FNV-1a digest of every observed event (tx starts,
  /// reception outcomes, aborts) with doubles folded in bit-exactly. Two runs
  /// produce the same hash iff the simulator delivered the same event stream
  /// in the same order with the same physics — the golden-hash regression
  /// test pins this against the pre-event-core-rewrite queue.
  [[nodiscard]] std::uint64_t event_hash() const { return event_hash_; }

 private:
  struct Interval {
    double start_s = 0.0;
    double end_s = 0.0;
  };
  /// A completed, channel-occupying reception whose concurrency count may
  /// still grow as longer overlapping receptions complete.
  struct PendingOccupancy {
    double start_s = 0.0;
    double end_s = 0.0;
    int stabbing = 0;  // receptions whose interval contains start_s
  };
  struct TxRecord {
    sim::TxEvent ev;
    std::size_t expected_rx = 0;
    std::size_t seen_rx = 0;
    /// Which stations reported an outcome (duplicate detection). Sized
    /// lazily for broadcasts; unicast uses seen_rx alone.
    std::vector<bool> seen_at;
  };

  /// Folds one 64-bit word into event_hash_ (FNV-1a, byte at a time).
  void mix(std::uint64_t word);
  void mix_double(double x);

  /// Runs one check: records a violation when `pass` is false, and only then
  /// calls `detail()` for its text (nearly every check passes).
  template <class Detail>
  void check(bool pass, const char* invariant, double time_s,
             const Detail& detail);
  /// Serialization check + interval bookkeeping shared by data transmissions
  /// and noise bursts (both occupy the station's one transmitter).
  void note_own_transmission(const sim::TxEvent& tx);
  void check_reception_identity(const TxRecord& rec, const sim::RxEvent& rx);
  void check_sinr(const TxRecord& rec, const sim::RxEvent& rx);
  void check_half_duplex(const TxRecord& rec, const sim::RxEvent& rx);
  void check_despreading_cap(const TxRecord& rec, const sim::RxEvent& rx);
  /// Smallest start time among transmissions not yet fully accounted for.
  [[nodiscard]] double min_active_start() const;

  AuditConfig config_;
  std::vector<Violation> violations_;
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t checks_run_ = 0;
  std::uint64_t event_hash_ = 14695981039346656037ull;  // FNV-1a offset basis

  double last_event_s_ = 0.0;
  double max_airtime_s_ = 0.0;
  std::map<std::uint64_t, TxRecord> active_;  // started, outcomes pending
  /// Per-station transmit intervals, for serialization + half-duplex checks.
  std::vector<std::vector<Interval>> own_tx_;
  /// Per-station completed channel-occupying receptions (despreading cap).
  std::vector<std::vector<PendingOccupancy>> occupancy_;

  // Independently derived counters, cross-checked against sim::Metrics.
  std::uint64_t unicast_starts_ = 0;
  std::uint64_t unicast_delivered_ = 0;
  std::uint64_t broadcast_starts_ = 0;
  std::uint64_t broadcast_delivered_ = 0;
  std::uint64_t noise_starts_ = 0;
  std::array<std::uint64_t, 5> unicast_losses_{};  // by LossType (incl aborted)
};

/// Exact-vs-approximate engine cross-check over two runs of the same
/// scenario and seed: `run` (the engine under test) against `reference`
/// (the exact engine), both traced from start to end. Receptions are keyed
/// by (tx id, receiver). Every reception must exist in both traces, each
/// min-SINR must agree within relative `sinr_rel_bound`, and a delivered/lost
/// disagreement is tolerated only when the reference SINR sits within the
/// bound of its threshold (a genuine borderline call). Returns one
/// "engine-crosscheck" violation (time_s 0) per disagreement, empty when
/// the runs agree. A capped trace that dropped events is refused: its missing
/// receptions would read as disagreements.
[[nodiscard]] std::vector<Violation> cross_check_engine(
    const sim::TraceRecorder& run, const sim::TraceRecorder& reference,
    double sinr_rel_bound);

}  // namespace drn::audit
