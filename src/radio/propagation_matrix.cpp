#include "radio/propagation_matrix.hpp"

#include "common/expects.hpp"
#include "common/parallel.hpp"

namespace drn::radio {

std::vector<std::size_t> PropagationMatrix::row_offsets(std::size_t m) {
  DRN_EXPECTS(m > 0);
  std::vector<std::size_t> out(m);
  for (std::size_t i = 0; i < m; ++i) out[i] = i * (2 * m - i - 1) / 2;
  return out;
}

PropagationMatrix::PropagationMatrix(std::size_t size, LinearGain self_gain)
    : row_offset_(row_offsets(size)), gains_(size * (size + 1) / 2, 0.0) {
  DRN_EXPECTS(self_gain.value() > 0.0);
  for (std::size_t i = 0; i < size; ++i)
    gains_[row_offset_[i] + i] = self_gain.value();
}

PropagationMatrix::PropagationMatrix(std::size_t size, Uninitialised)
    : row_offset_(row_offsets(size)), gains_(size * (size + 1) / 2) {}

PropagationMatrix PropagationMatrix::from_placement(
    const geo::Placement& placement, const PropagationModel& model,
    LinearGain self_gain) {
  DRN_EXPECTS(self_gain.value() > 0.0);
  const std::size_t m = placement.size();
  PropagationMatrix out(m, Uninitialised{});
  double* const g = out.gains_.data();
  // Each row block fills its packed rows: the diagonal, then one model call
  // per unordered pair.
  parallel_row_blocks(m, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      double* const r = g + out.row_offset_[i];
      r[i] = self_gain.value();
      for (std::size_t j = i + 1; j < m; ++j)
        r[j] = model.power_gain(placement[i], placement[j]).value();
    }
  });
  return out;
}

std::vector<std::vector<StationId>> PropagationMatrix::neighbors_at_least(
    double min_gain) const {
  DRN_EXPECTS(min_gain > 0.0);
  const std::size_t m = size();
  std::vector<std::vector<StationId>> above(m);
  parallel_row_blocks(m, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const double* r = gains_.data() + row_offset_[i];
      for (std::size_t j = i + 1; j < m; ++j)
        if (r[j] >= min_gain) above[i].push_back(static_cast<StationId>(j));
    }
  });
  // When station i is reached, out[i] already holds every k < i that listed
  // it, in ascending k; its own upper list follows.
  std::vector<std::vector<StationId>> out(m);
  for (std::size_t i = 0; i < m; ++i) {
    out[i].insert(out[i].end(), above[i].begin(), above[i].end());
    for (const StationId j : above[i])
      out[j].push_back(static_cast<StationId>(i));
  }
  return out;
}

void PropagationMatrix::set_gain(StationId a, StationId b, LinearGain gain) {
  DRN_EXPECTS(gain.value() > 0.0);
  gains_[index(a, b)] = gain.value();
}

}  // namespace drn::radio
