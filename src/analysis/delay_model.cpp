#include "analysis/delay_model.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/schedule_math.hpp"
#include "common/expects.hpp"

namespace drn::analysis {

std::vector<double> geometric_wait_pmf(double receive_fraction,
                                       std::size_t bins) {
  DRN_EXPECTS(bins >= 1);
  DRN_EXPECTS(access_probability(receive_fraction) > 0.0);
  std::vector<double> pmf(bins, 0.0);
  double tail = 1.0;
  for (std::size_t k = 0; k + 1 < bins; ++k) {
    pmf[k] = wait_pmf(receive_fraction, static_cast<unsigned>(k));
    tail -= pmf[k];
  }
  pmf[bins - 1] = std::max(0.0, tail);
  return pmf;
}

std::vector<double> binned_wait_fractions(std::span<const double> wait_slots,
                                          std::size_t bins) {
  DRN_EXPECTS(bins >= 1);
  DRN_EXPECTS(!wait_slots.empty());
  std::vector<double> counts(bins, 0.0);
  for (double w : wait_slots) {
    DRN_EXPECTS(w >= 0.0);
    const auto bin = std::min<std::size_t>(
        bins - 1, static_cast<std::size_t>(std::floor(w)));
    counts[bin] += 1.0;
  }
  for (double& c : counts) c /= static_cast<double>(wait_slots.size());
  return counts;
}

double total_variation(std::span<const double> a, std::span<const double> b) {
  DRN_EXPECTS(a.size() == b.size());
  DRN_EXPECTS(!a.empty());
  double tv = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) tv += std::abs(a[i] - b[i]);
  return tv / 2.0;
}

double binned_mean(std::span<const double> fractions) {
  DRN_EXPECTS(!fractions.empty());
  double mean = 0.0;
  for (std::size_t i = 0; i < fractions.size(); ++i)
    mean += (static_cast<double>(i) + 0.5) * fractions[i];
  return mean;
}

}  // namespace drn::analysis
