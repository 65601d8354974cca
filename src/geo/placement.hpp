// Station placement generators.
//
// Section 4 of the paper analyses stations "distributed randomly within a
// circle of radius R"; the simulations in Section 1/8 use 100- and
// 1000-station random placements. Beyond the uniform disc we provide
// Matérn-style clusters (buildings along streets — the paper's motivating
// scenario), and degenerate line/ring layouts useful for constructing worst
// cases in tests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "geo/vec2.hpp"

namespace drn::geo {

/// A set of station positions. Index into the vector is the station id used
/// throughout the library.
using Placement = std::vector<Vec2>;

/// `n` stations uniform i.i.d. in the disc of the given radius centred at the
/// origin — the Section 4 model.
[[nodiscard]] Placement uniform_disc(std::size_t n, double radius, Rng& rng);

/// Matérn-style cluster process: `clusters` parent points uniform in the disc
/// of `radius`, each with `per_cluster` daughters uniform in a disc of
/// `cluster_radius` around the parent. Models dense pockets (city blocks)
/// separated by sparser gaps.
[[nodiscard]] Placement clustered_disc(std::size_t clusters,
                                       std::size_t per_cluster, double radius,
                                       double cluster_radius, Rng& rng);

/// `n` stations evenly spaced on a line starting at `start` with the given
/// spacing along +x. Deterministic; useful for multihop chain scenarios.
[[nodiscard]] Placement line(std::size_t n, Vec2 start, double spacing);

/// `n` stations evenly spaced on a circle of the given radius.
[[nodiscard]] Placement ring(std::size_t n, double radius);

/// Expected number of stations within distance `range` of a typical station
/// when `n` stations fill a disc of radius `region_radius` (density * pi *
/// range^2). Section 6 uses this to argue that a reach of 1/sqrt(density)
/// yields only ~pi expected neighbours and that doubling the reach yields
/// ~4*pi.
[[nodiscard]] double expected_neighbors(std::size_t n, double region_radius,
                                        double range);

/// Distance to the nearest other station for each station (brute force,
/// O(n^2)); used to validate the R0 = 1/sqrt(density) characteristic length.
[[nodiscard]] std::vector<double> nearest_neighbor_distances(
    const Placement& placement);

}  // namespace drn::geo
