// Workload generators: Poisson packet arrival processes over various
// source/destination distributions, as used throughout the paper's
// simulations (random traffic over 100- and 1000-station networks).
#pragma once

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/packet.hpp"

namespace drn::sim {

/// A packet plus the global time it enters the network.
struct Injection {
  double time_s = 0.0;
  Packet packet;
};

/// Chooses a (source, destination) pair for one packet.
using PairChooser = std::function<std::pair<StationId, StationId>(Rng&)>;

/// Uniform random ordered pair of distinct stations.
[[nodiscard]] PairChooser uniform_pairs(std::size_t stations);

/// Fixed source -> destination flow.
[[nodiscard]] PairChooser fixed_pair(StationId source, StationId destination);

/// Uniform random source; destination drawn uniformly from the source's row
/// of the supplied neighbour lists (single-hop traffic).
[[nodiscard]] PairChooser neighbor_pairs(
    std::vector<std::vector<StationId>> neighbors);

/// Poisson arrivals at aggregate rate `packets_per_second` over [0, duration),
/// each packet of `size_bits`, with endpoints drawn by `choose`.
[[nodiscard]] std::vector<Injection> poisson_traffic(double packets_per_second,
                                                     double duration_s,
                                                     double size_bits,
                                                     const PairChooser& choose,
                                                     Rng& rng);

}  // namespace drn::sim
