// Pluggable interference accounting behind the simulator's SINR hot path.
//
// The simulator maintains, for every in-flight reception, the summed power of
// all other active transmissions (Eq. 5-6). How that sum is maintained is a
// pure performance/precision trade, so it lives behind this interface:
//
//   compensated  Neumaier compensated accumulation plus a periodic exact
//                recomputation from the live transmission set, over a dense
//                O(M²) PropagationMatrix. Bit-accurate interference for runs
//                of any length; the default engine. (Plain += and
//                subtract-and-clamp drift over long runs; the drift test in
//                tests/radio/interference_engine_test.cpp replays that
//                arithmetic with a bare double to show it.)
//   nearfar      Section 4's din made algorithmic: a uniform spatial grid
//                (geo/grid_index) enumerates interferers within a cutoff
//                radius exactly, and everything beyond is folded into one
//                aggregated far-field term per (tx cell, rx cell) pair using
//                cell-centre gains. Gains are evaluated lazily on demand —
//                no O(M²) matrix — so M is bounded by memory for stations,
//                not for station pairs. Approximation error is bounded by
//                the gain variation across one cell at the cutoff distance
//                (see DESIGN.md §"Interference engines").
//
// Engines own all interference state; their sole client is the physical
// layer (sim::RadioMedium — nothing above it may touch interference state,
// enforced by drn_lint's layer-boundary rule), which holds one opaque
// ReceptionHandle per in-flight reception and is notified through visitors
// when a transmission start/end changes a reception's interference (so it
// can re-test SINR). All engine iteration runs in deterministic order
// (ordered maps, row-major cells), preserving the simulator's
// bit-reproducibility contract.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "common/expects.hpp"
#include "common/types.hpp"
#include "geo/placement.hpp"
#include "geo/vec2.hpp"
#include "radio/propagation.hpp"
#include "radio/propagation_matrix.hpp"
#include "radio/units.hpp"

namespace drn::radio {

/// Neumaier-compensated running sum: add() accumulates the rounding error of
/// every addition in a second double, value() folds it back in. Unlike plain
/// Kahan it stays correct when the addend is larger than the running sum
/// (exactly the transmit-end case: subtracting the last big contribution).
class CompensatedSum {
 public:
  void add(double x) {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      comp_ += (sum_ - t) + x;
    } else {
      comp_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  [[nodiscard]] double value() const { return sum_ + comp_; }
  void reset() { sum_ = 0.0; comp_ = 0.0; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

enum class InterferenceEngineKind {
  kCompensated,  // compensated exact accumulation (default)
  kNearFar,      // grid-indexed near field + aggregated far-field din
};

/// Parses "compensated" | "nearfar".
std::optional<InterferenceEngineKind> parse_engine(std::string_view text);
const char* engine_name(InterferenceEngineKind kind);

/// Opaque id of one in-flight reception inside an engine. Handles are dense
/// small integers: an engine reuses closed handles before issuing new ones,
/// so the largest handle stays below the most receptions ever open at once,
/// and a client may index its own per-reception records by handle.
using ReceptionHandle = std::uint32_t;
inline constexpr ReceptionHandle kInvalidReception = ~ReceptionHandle{0};

class InterferenceEngine {
 public:
  /// Notified for each open reception whose interference a transmission
  /// start/end changed, with the power delta (always positive; the engine
  /// has already applied the sign internally). The medium passes one at a
  /// start, to re-test SINR, and none at an end; it reads no delta.
  using AffectedVisitor = std::function<void(ReceptionHandle, Watts)>;
  /// Notified for each open reception at the station that just keyed up its
  /// own transmitter (the simulator fails these as Type 3; no power is ever
  /// added to them).
  using SenderVisitor = std::function<void(ReceptionHandle)>;
  /// Notified once per already-active interfering transmission when a
  /// reception opens: (tx_id, power). No caller in src/ passes one
  /// (multiuser detection reads the active set and gain() instead); the
  /// hook and the AffectedVisitor deltas stay for engine decorators and the
  /// engine tests, which check every visit.
  using ContributionVisitor = std::function<void(std::uint64_t, Watts)>;

  virtual ~InterferenceEngine() = default;

  [[nodiscard]] virtual std::size_t station_count() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Power gain from transmitter `tx` to receiver `rx` (self gain on the
  /// diagonal). Lazy engines evaluate this on demand.
  [[nodiscard]] virtual double gain(StationId rx, StationId tx) const = 0;

  /// Thermal noise floor folded into every interference() result.
  void set_thermal_noise(Watts noise) {
    DRN_EXPECTS(noise.value() > 0.0);
    thermal_w_ = noise.value();
  }
  [[nodiscard]] Watts thermal_noise() const { return Watts{thermal_w_}; }

  /// A transmission keyed up: raise the interference of every open reception
  /// it reaches. Receptions at the sender itself go to `at_sender` instead
  /// (their interference is never touched, matching the Type 3 rule).
  virtual void transmit_started(std::uint64_t tx_id, StationId from,
                                Watts power, const SenderVisitor& at_sender,
                                const AffectedVisitor& affected) = 0;

  /// The transmission left the air: lower everyone else's interference.
  /// Receptions belonging to tx_id itself and receptions at the sender's
  /// station are skipped, mirroring transmit_started exactly.
  virtual void transmit_ended(std::uint64_t tx_id,
                              const AffectedVisitor& affected) = 0;

  /// Opens a reception of `tx_id` at station `rx`; its initial interference
  /// is thermal plus every other active transmission (excluding any from
  /// `rx` itself). `tx_id` must be active (transmit_started already called).
  [[nodiscard]] virtual ReceptionHandle open_reception(
      std::uint64_t tx_id, StationId rx,
      const ContributionVisitor& contribution) = 0;
  virtual void close_reception(ReceptionHandle h) = 0;
  [[nodiscard]] virtual std::size_t open_receptions() const = 0;

  /// Current interference (thermal included) of an open reception.
  [[nodiscard]] virtual Watts interference(ReceptionHandle h) const = 0;

  /// Interference recomputed from scratch off the live transmission set —
  /// the ground truth the incremental value is audited against.
  [[nodiscard]] virtual Watts recomputed_interference(
      ReceptionHandle h) const = 0;

  /// Total power a station hears right now: thermal plus every active
  /// transmission including the station's own (carrier sense).
  [[nodiscard]] virtual Watts power_at(StationId s) const = 0;

  /// Station `s` relocated to `position` (dynamics mobility). Precondition,
  /// enforced by the simulator: the station is RF-idle — it is not
  /// transmitting and has no open reception — so no in-flight interference
  /// sum ever mixes gains sampled at two positions. The compensated
  /// engine recomputes the station's matrix row and column and additionally
  /// requires enable_mobility() to have been called first (it otherwise
  /// has no propagation model to recompute gains from); the nearfar engine
  /// re-bins the station in its spatial grid and needs no setup. The base
  /// default rejects the call.
  virtual void station_moved(StationId s, geo::Vec2 position);

  /// Hands a matrix-backed engine the placement + propagation model backing
  /// its gain matrix so station_moved() can recompute rows. `self_gain` is
  /// the matrix-diagonal value to restore for the moved station. The nearfar
  /// engine keeps its own placement/model; for it this is a no-op.
  virtual void enable_mobility(geo::Placement placement,
                               std::shared_ptr<const PropagationModel> model,
                               LinearGain self_gain);

 protected:
  double thermal_w_ = 1e-15;
};

/// Station counts above which library code must not build a dense O(M²)
/// matrix outside the engine layer (enforced by drn_lint's dense-matrix
/// rule + make_dense_gains): beyond this, use the nearfar engine.
inline constexpr std::size_t kDenseMatrixGuardM = 4096;

/// The one sanctioned library-side route to a dense matrix: guards M against
/// kDenseMatrixGuardM so accidental metro-scale dense allocations fail fast
/// instead of exhausting memory.
[[nodiscard]] PropagationMatrix make_dense_gains(
    const geo::Placement& placement, const PropagationModel& model,
    LinearGain self_gain = LinearGain{1.0});

/// Default engine: Neumaier accumulation + periodic exact recomputation.
[[nodiscard]] std::unique_ptr<InterferenceEngine> make_compensated_engine(
    PropagationMatrix gains);

struct NearFarConfig {
  /// Interferers within this radius are summed exactly per pair.
  Meters cutoff;
  /// Grid cell side; <= 0 derives cutoff / 4 (finer cells tighten the
  /// far-field bound, cost grows as the square of cutoff / cell).
  Meters cell;
};

/// Near/far engine over lazy gains; never materialises an O(M²) matrix.
[[nodiscard]] std::unique_ptr<InterferenceEngine> make_nearfar_engine(
    const geo::Placement& placement,
    std::shared_ptr<const PropagationModel> model, NearFarConfig config);

}  // namespace drn::radio
