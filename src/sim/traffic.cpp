#include "sim/traffic.hpp"

#include <memory>
#include <utility>

#include "common/expects.hpp"

namespace drn::sim {

PairChooser uniform_pairs(std::size_t stations) {
  DRN_EXPECTS(stations >= 2);
  return [stations](Rng& rng) {
    const auto src = static_cast<StationId>(rng.uniform_index(stations));
    auto dst = static_cast<StationId>(rng.uniform_index(stations - 1));
    if (dst >= src) ++dst;  // skip src, keeping the draw uniform over the rest
    return std::pair{src, dst};
  };
}

PairChooser fixed_pair(StationId source, StationId destination) {
  DRN_EXPECTS(source != destination);
  return [source, destination](Rng&) { return std::pair{source, destination}; };
}

PairChooser neighbor_pairs(std::vector<std::vector<StationId>> neighbors) {
  DRN_EXPECTS(!neighbors.empty());
  auto lists = std::make_shared<std::vector<std::vector<StationId>>>(
      std::move(neighbors));
  return [lists](Rng& rng) {
    // Draw sources until one with at least one neighbour comes up.
    for (;;) {
      const auto src = static_cast<StationId>(rng.uniform_index(lists->size()));
      const auto& nbrs = (*lists)[src];
      if (nbrs.empty()) continue;
      const auto dst = nbrs[rng.uniform_index(nbrs.size())];
      return std::pair{src, dst};
    }
  };
}

namespace {

Injection make_injection(double time_s, double size_bits,
                         const PairChooser& choose, Rng& rng) {
  Injection inj;
  inj.time_s = time_s;
  auto [src, dst] = choose(rng);
  inj.packet.source = src;
  inj.packet.destination = dst;
  inj.packet.size_bits = size_bits;
  return inj;
}

}  // namespace

std::vector<Injection> poisson_traffic(double packets_per_second,
                                       double duration_s, double size_bits,
                                       const PairChooser& choose, Rng& rng) {
  DRN_EXPECTS(packets_per_second > 0.0);
  DRN_EXPECTS(duration_s > 0.0);
  DRN_EXPECTS(size_bits > 0.0);
  std::vector<Injection> out;
  double t = rng.exponential(packets_per_second);
  while (t < duration_s) {
    out.push_back(make_injection(t, size_bits, choose, rng));
    t += rng.exponential(packets_per_second);
  }
  return out;
}

}  // namespace drn::sim
