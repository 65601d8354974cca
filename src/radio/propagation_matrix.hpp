// The propagation matrix H of the paper (Section 3), stored as power gains.
//
// Entry (i, j) is the power gain from transmitter j to receiver i: if j
// transmits at power P, station i receives power gain(i, j) * P from it
// (Eq. 6 uses h²_ij P_j; we store g_ij = h²_ij). The matrix is what stations
// can measure in a real deployment and is the sole input to routing (Section
// 6.2: "they will be able to observe the path gains between themselves and
// construct entries in the propagation matrix H").
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/expects.hpp"
#include "common/types.hpp"
#include "geo/placement.hpp"
#include "radio/propagation.hpp"
#include "radio/units.hpp"

namespace drn::radio {

/// M x M matrix of power gains. Immutable after construction except for
/// explicit set_gain (used by tests, obstruction scenarios and mobility).
///
/// The physical channel is reciprocal, so gain(i, j) == gain(j, i) holds by
/// construction: each unordered pair {i, j} owns one stored double. Storage
/// is the packed upper triangle with its diagonal, M(M+1)/2 doubles (67 MB
/// at M = 4096, half a full M x M matrix): row i holds j = i..M-1 contiguously,
/// entry j at offset i(2M-i-1)/2 + j. The M row offsets are kept in a table.
class PropagationMatrix {
 public:
  /// Read-only view of station `s`'s gains: row(s)[other] == gain(s, other).
  /// Entries with other >= s are contiguous; the rest stride down the
  /// packed columns. `other` is not bounds-checked (row() checked `s`). A
  /// view points into the matrix, so it must not outlive it.
  class Row {
   public:
    [[nodiscard]] double operator[](StationId other) const {
      return gains_[packed_index(row_offset_, s_, other)];
    }

   private:
    friend class PropagationMatrix;
    Row(const double* gains, const std::size_t* row_offset, StationId s)
        : gains_(gains), row_offset_(row_offset), s_(s) {}
    const double* gains_;
    const std::size_t* row_offset_;
    StationId s_;
  };

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
  [[nodiscard]] std::size_t size() const { return row_offset_.size(); }

  /// Bytes of storage: M(M+1)/2 gains plus the M row offsets.
  [[nodiscard]] std::size_t memory_bytes() const {
    return gains_.size() * sizeof(double) +
           row_offset_.size() * sizeof(std::size_t);
  }

  /// Power gain from transmitter `tx` to receiver `rx`, as a raw double.
  /// This is the per-event hot path; the raw read is the sanctioned boundary
  /// where gains leave the typed layer (see DESIGN.md "Unit safety").
  [[nodiscard]] double gain(StationId rx, StationId tx) const {
    return gains_[index(rx, tx)];
  }

  /// The gains of station `s` as a view; a loop over the receivers of one
  /// transmitter pays one bounds check for the whole walk.
  [[nodiscard]] Row row(StationId s) const {
    DRN_EXPECTS(s < size());
    return Row(gains_.data(), row_offset_.data(), s);
  }

  /// Every station's neighbours: the stations at gain >= `min_gain` from it,
  /// in ascending id order (never itself). One pass over the packed upper
  /// rows in parallel row blocks, then a serial O(edges) mirror.
  [[nodiscard]] std::vector<std::vector<StationId>> neighbors_at_least(
      double min_gain) const;

  /// Sets the gain of the pair {a, b}, i.e. in both directions (the physical
  /// channel is reciprocal).
  void set_gain(StationId a, StationId b, LinearGain gain);

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

  /// The offsets i(2m-i-1)/2 of the m packed rows.
  [[nodiscard]] static std::vector<std::size_t> row_offsets(std::size_t m);

  /// Packed position of the pair {a, b}: row min(a, b), column max(a, b).
  /// Written so that GCC emits no branch: the column is a + b - min, not a
  /// second comparison, and the row offset is a table read, not a multiply.
  /// With min and max, GCC branched on a < b, which a walk over receivers
  /// mispredicts half the time; the multiply made the walk's index chain
  /// longer than the full matrix's (EXPERIMENTS P7).
  [[nodiscard]] static std::size_t packed_index(const std::size_t* row_offset,
                                                std::size_t a, std::size_t b) {
    const std::size_t lo = std::min(a, b);
    return row_offset[lo] + (a + b - lo);
  }

  [[nodiscard]] std::size_t index(StationId rx, StationId tx) const {
    DRN_EXPECTS(rx < size() && tx < size());
    return packed_index(row_offset_.data(), rx, tx);
  }

  // row_offset_[i]: packed row i holds j = i..M-1 at row_offset_[i] + j
  std::vector<std::size_t> row_offset_;
  std::vector<double, DefaultInitAllocator<double>> gains_;
};

}  // namespace drn::radio
