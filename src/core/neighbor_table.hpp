// Per-station knowledge about direct neighbours.
//
// A station knows, for each neighbour it may send to: the path gain it
// observed (the usable entries of the propagation matrix H), a model of the
// neighbour's clock built from rendezvous exchanges, and whether the
// neighbour is close enough that its published receive windows must be
// respected even when it is not the addressee (Section 7.3: a very near
// transmitter can raise a neighbour's interference floor "significantly" —
// the paper's threshold is a 1 dB rise, i.e. interference at least one
// quarter of the tolerated noise level).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/clock_model.hpp"

namespace drn::core {

struct Neighbor {
  StationId id = kNoStation;
  /// If true, never transmit (to anyone else) during this neighbour's
  /// receive windows — our signal would raise its noise floor significantly.
  bool respect_receive_windows = false;
  /// Power gain between us and the neighbour (reciprocal channel).
  double gain = 0.0;
  /// Map from our local clock to theirs.
  ClockModel clock;
  /// Per-link data rate (core/rate_selection extension); 0 = the network's
  /// fixed design rate.
  double rate_bps = 0.0;
};
// Every station keeps one entry per neighbour (about a thousand each under
// re-adoption at M = 1024): the flag sits in the id's padding, and a new
// field must not silently re-pad the entry.
static_assert(sizeof(Neighbor) == 48);

/// Open-addressing map from station id to a dense slot number: linear
/// probing over a power-of-two table kept at most half full, with kNoStation
/// marking empty cells. A lookup costs O(1) however many ids are present,
/// and the table is sized by the ids present, never by M. Nothing iterates
/// it in id order, so its layout cannot perturb determinism.
class IdIndex {
 public:
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  /// The slot stored for `id`, or kAbsent.
  [[nodiscard]] std::uint32_t find(StationId id) const {
    if (cells_.empty()) return kAbsent;
    const std::size_t mask = cells_.size() - 1;
    // Empty cells hold kAbsent, so find(kNoStation) reports absent too.
    for (std::size_t i = home(id);; i = (i + 1) & mask) {
      if (cells_[i].id == id || cells_[i].id == kNoStation) return cells_[i].slot;
    }
  }

  /// Maps `id` (not present, not kNoStation) to `slot` (not kAbsent).
  void insert(StationId id, std::uint32_t slot);

  /// Removes `id`; returns false when it was not present.
  bool erase(StationId id);

  /// Moves every stored slot above `slot` down by one: the dense array this
  /// index addresses has just closed the gap left by erasing element `slot`.
  void close_gap(std::uint32_t slot);

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Cell {
    StationId id = kNoStation;
    std::uint32_t slot = kAbsent;
  };

  /// Fibonacci hashing: the top bits of id * 2^32/phi.
  [[nodiscard]] std::size_t home(StationId id) const {
    return static_cast<std::uint32_t>(id * 0x9E3779B9U) >> shift_;
  }
  void grow();

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  int shift_ = 0;
};

/// A station's neighbours in insertion order — the order the access rules
/// walk them (constraint order in window searches, drop order on eviction)
/// — with an id index for O(1) lookups.
class NeighborTable {
 public:
  /// Adds a neighbour. Ids must be distinct.
  void add(Neighbor neighbor);

  /// The entry for `id`, or nullptr if unknown.
  [[nodiscard]] const Neighbor* find(StationId id) const {
    const std::uint32_t at = index_.find(id);
    return at == IdIndex::kAbsent ? nullptr : &neighbors_[at];
  }

  /// Position of `id` in all(), or IdIndex::kAbsent. Positions shift down
  /// by one past an erased entry and are otherwise stable.
  [[nodiscard]] std::uint32_t position(StationId id) const {
    return index_.find(id);
  }

  /// Mutable access to the entry at `position` (< size()): clock-model
  /// refits and gain refreshes during maintenance rendezvous.
  [[nodiscard]] Neighbor& at_position(std::uint32_t position) {
    return neighbors_[position];
  }

  /// Removes the entry for `id` (dynamics: a crashed neighbour is evicted
  /// once it falls silent). Returns false when `id` was not present.
  bool erase(StationId id);

  [[nodiscard]] std::span<const Neighbor> all() const { return neighbors_; }
  [[nodiscard]] std::size_t size() const { return neighbors_.size(); }

 private:
  std::vector<Neighbor> neighbors_;
  IdIndex index_;  // id -> position in neighbors_
};

/// Section 7.3's significance rule: must a transmission at `power_w` from us
/// be kept out of a neighbour's receive windows? True iff the power we would
/// deliver to it exceeds a quarter of its tolerated interference budget
/// (budget = expected received signal / required SNR; a quarter is the
/// paper's 1 dB threshold).
[[nodiscard]] bool interferes_significantly(double gain_to_neighbor,
                                            double power_w,
                                            double interference_budget_w);

}  // namespace drn::core
