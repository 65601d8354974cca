// The propagation matrix H of the paper (Section 3), stored as power gains.
//
// Entry (i, j) is the power gain from transmitter j to receiver i: if j
// transmits at power P, station i receives power gain(i, j) * P from it
// (Eq. 6 uses h²_ij P_j; we store g_ij = h²_ij). The matrix is what stations
// can measure in a real deployment and is the sole input to routing (Section
// 6.2: "they will be able to observe the path gains between themselves and
// construct entries in the propagation matrix H").
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "geo/placement.hpp"
#include "radio/propagation.hpp"
#include "radio/units.hpp"

namespace drn::radio {

/// Dense M x M matrix of power gains. Immutable after construction except for
/// explicit set_gain (used by tests and obstruction scenarios).
class PropagationMatrix {
 public:
  /// Builds the matrix from station positions under a propagation model.
  /// The diagonal (a station's coupling to its own transmitter) is set to
  /// `self_gain`; the paper treats self-interference as unconditionally fatal
  /// (Type 3), so any value >= the strongest neighbour gain is faithful.
  /// Row blocks are filled in parallel (drn::parallel_row_blocks), so `model`
  /// is called concurrently; every entry is still the one power_gain call of
  /// its pair, so the matrix does not depend on the worker count.
  static PropagationMatrix from_placement(
      const geo::Placement& placement, const PropagationModel& model,
      LinearGain self_gain = LinearGain{1.0});

  /// An M x M matrix with all off-diagonal gains zero (for incremental test
  /// construction via set_gain).
  explicit PropagationMatrix(std::size_t size,
                             LinearGain self_gain = LinearGain{1.0});

  /// Number of stations M.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Power gain from transmitter `tx` to receiver `rx`, as a raw double.
  /// This is the per-event hot path; the raw read is the sanctioned boundary
  /// where gains leave the typed layer (see DESIGN.md "Unit safety").
  [[nodiscard]] double gain(StationId rx, StationId tx) const {
    return gains_[index(rx, tx)];
  }

  /// The full gain row of station `s`: row(s)[other] == gain(s, other). The
  /// matrix is exactly symmetric by construction (every write path stores
  /// the same double in both triangles), so row(tx)[rx] is also gain(rx, tx)
  /// — which lets a loop over receivers of one transmitter walk memory
  /// sequentially instead of striding a column of an O(M²) matrix.
  [[nodiscard]] const double* row(StationId s) const {
    DRN_EXPECTS(s < size_);
    return gains_.data() + static_cast<std::size_t>(s) * size_;
  }

  /// Every station's neighbours: the stations at gain >= `min_gain` from it,
  /// in ascending id order (never itself). One pass over the upper triangle
  /// in parallel row blocks, then a serial O(edges) mirror — equal to a scan
  /// of every full row because the matrix is exactly symmetric.
  [[nodiscard]] std::vector<std::vector<StationId>> neighbors_at_least(
      double min_gain) const;

  /// Sets the gain in BOTH directions (the physical channel is reciprocal).
  void set_gain(StationId a, StationId b, LinearGain gain);

  /// True iff every entry equals its transpose entry.
  [[nodiscard]] bool is_symmetric() const;

 private:
  /// Allocator that leaves a default-constructed double uninitialised, so
  /// from_placement's workers are the first to touch (and fault in) the
  /// pages they fill. Every other construction path still value-initialises.
  template <class T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <class U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    template <class U, class... Args>
    void construct(U* p, Args&&... args) {
      if constexpr (sizeof...(Args) == 0)
        ::new (static_cast<void*>(p)) U;
      else
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };
  struct Uninitialised {};

  /// An M x M matrix whose entries are all still to be written.
  PropagationMatrix(std::size_t size, Uninitialised);

  [[nodiscard]] std::size_t index(StationId rx, StationId tx) const;

  std::size_t size_;
  // row-major: gains_[rx * size_ + tx]
  std::vector<double, DefaultInitAllocator<double>> gains_;
};

}  // namespace drn::radio
