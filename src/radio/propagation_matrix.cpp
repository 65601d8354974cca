#include "radio/propagation_matrix.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "common/parallel.hpp"

namespace drn::radio {

PropagationMatrix::PropagationMatrix(std::size_t size, LinearGain self_gain)
    : size_(size), gains_(size * size, 0.0) {
  DRN_EXPECTS(size > 0);
  DRN_EXPECTS(self_gain.value() > 0.0);
  for (std::size_t i = 0; i < size_; ++i)
    gains_[i * size_ + i] = self_gain.value();
}

PropagationMatrix::PropagationMatrix(std::size_t size, Uninitialised)
    : size_(size), gains_(size * size) {
  DRN_EXPECTS(size > 0);
}

PropagationMatrix PropagationMatrix::from_placement(
    const geo::Placement& placement, const PropagationModel& model,
    LinearGain self_gain) {
  DRN_EXPECTS(self_gain.value() > 0.0);
  const std::size_t m = placement.size();
  PropagationMatrix out(m, Uninitialised{});
  double* const g = out.gains_.data();
  // Pass 1: each row block fills its diagonal and upper triangle, one model
  // call per unordered pair.
  parallel_row_blocks(m, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      g[i * m + i] = self_gain.value();
      for (std::size_t j = i + 1; j < m; ++j)
        g[i * m + j] = model.power_gain(placement[i], placement[j]).value();
    }
  });
  // Pass 2: each row block copies its lower triangle from the transpose,
  // one column tile at a time so the strided reads stay in cache.
  parallel_row_blocks(m, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c0 = 0; c0 < end; c0 += kRowsPerBlock) {
      const std::size_t c1 = c0 + kRowsPerBlock;
      for (std::size_t i = begin; i < end; ++i)
        for (std::size_t j = c0; j < std::min(c1, i); ++j)
          g[i * m + j] = g[j * m + i];
    }
  });
  return out;
}

std::vector<std::vector<StationId>> PropagationMatrix::neighbors_at_least(
    double min_gain) const {
  DRN_EXPECTS(min_gain > 0.0);
  const std::size_t m = size_;
  std::vector<std::vector<StationId>> above(m);
  parallel_row_blocks(m, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const double* r = gains_.data() + i * m;
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

std::size_t PropagationMatrix::index(StationId rx, StationId tx) const {
  DRN_EXPECTS(rx < size_ && tx < size_);
  return static_cast<std::size_t>(rx) * size_ + tx;
}

void PropagationMatrix::set_gain(StationId a, StationId b, LinearGain gain) {
  DRN_EXPECTS(gain.value() > 0.0);
  gains_[index(a, b)] = gain.value();
  gains_[index(b, a)] = gain.value();
}

bool PropagationMatrix::is_symmetric() const {
  for (std::size_t i = 0; i < size_; ++i)
    for (std::size_t j = i + 1; j < size_; ++j)
      if (gains_[i * size_ + j] != gains_[j * size_ + i]) return false;
  return true;
}

}  // namespace drn::radio
