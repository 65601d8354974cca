#include "core/neighbor_table.hpp"

#include <algorithm>
#include <bit>

#include "common/expects.hpp"

namespace drn::core {

void IdIndex::insert(StationId id, std::uint32_t slot) {
  DRN_EXPECTS(id != kNoStation);
  DRN_EXPECTS(slot != kAbsent);
  if (2 * (size_ + 1) > cells_.size()) grow();
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = home(id);
  for (; cells_[i].id != kNoStation; i = (i + 1) & mask)
    DRN_EXPECTS(cells_[i].id != id);
  cells_[i] = Cell{id, slot};
  ++size_;
}

bool IdIndex::erase(StationId id) {
  if (cells_.empty() || id == kNoStation) return false;
  const std::size_t mask = cells_.size() - 1;
  std::size_t hole = home(id);
  for (; cells_[hole].id != id; hole = (hole + 1) & mask)
    if (cells_[hole].id == kNoStation) return false;
  // Backward-shift deletion: a later cell of the probe run moves into the
  // hole when the hole lies on its path from home, so no tombstones remain.
  for (std::size_t j = (hole + 1) & mask; cells_[j].id != kNoStation;
       j = (j + 1) & mask) {
    if (((j - home(cells_[j].id)) & mask) >= ((j - hole) & mask)) {
      cells_[hole] = cells_[j];
      hole = j;
    }
  }
  cells_[hole] = Cell{};
  --size_;
  return true;
}

void IdIndex::close_gap(std::uint32_t slot) {
  for (Cell& c : cells_)
    if (c.id != kNoStation && c.slot > slot) --c.slot;
}

void IdIndex::grow() {
  std::vector<Cell> old(std::max<std::size_t>(8, 2 * cells_.size()));
  old.swap(cells_);
  shift_ = 32 - std::countr_zero(cells_.size());
  size_ = 0;
  for (const Cell& c : old)
    if (c.id != kNoStation) insert(c.id, c.slot);
}

void NeighborTable::add(Neighbor neighbor) {
  DRN_EXPECTS(neighbor.id != kNoStation);
  DRN_EXPECTS(neighbor.gain > 0.0);
  DRN_EXPECTS(neighbors_.size() < IdIndex::kAbsent);
  // insert() refuses a duplicate id on its own probe path, before this
  // table changes.
  index_.insert(neighbor.id, static_cast<std::uint32_t>(neighbors_.size()));
  neighbors_.push_back(neighbor);
}

bool NeighborTable::erase(StationId id) {
  const std::uint32_t at = index_.find(id);
  if (at == IdIndex::kAbsent) return false;
  neighbors_.erase(neighbors_.begin() + at);
  index_.erase(id);
  index_.close_gap(at);
  return true;
}

bool interferes_significantly(double gain_to_neighbor, double power_w,
                              double interference_budget_w) {
  DRN_EXPECTS(gain_to_neighbor > 0.0);
  DRN_EXPECTS(power_w > 0.0);
  DRN_EXPECTS(interference_budget_w > 0.0);
  return gain_to_neighbor * power_w > 0.25 * interference_budget_w;
}

}  // namespace drn::core
