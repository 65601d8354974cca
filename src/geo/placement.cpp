#include "geo/placement.hpp"

#include <cmath>
#include <limits>
#include <numbers>

#include "common/expects.hpp"

namespace drn::geo {

namespace {

/// Uniform point in the disc of `radius` around `center` via the inverse-CDF
/// radial method (r = R*sqrt(u) makes area, not radius, uniform).
Vec2 uniform_in_disc(Vec2 center, double radius, Rng& rng) {
  const double r = radius * std::sqrt(rng.uniform());
  const double theta = rng.uniform(0.0, 2.0 * std::numbers::pi);
  return {center.x + r * std::cos(theta), center.y + r * std::sin(theta)};
}

}  // namespace

Placement uniform_disc(std::size_t n, double radius, Rng& rng) {
  DRN_EXPECTS(radius > 0.0);
  Placement p;
  p.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    p.push_back(uniform_in_disc({0.0, 0.0}, radius, rng));
  return p;
}

Placement clustered_disc(std::size_t clusters, std::size_t per_cluster,
                         double radius, double cluster_radius, Rng& rng) {
  DRN_EXPECTS(radius > 0.0);
  DRN_EXPECTS(cluster_radius > 0.0);
  Placement p;
  p.reserve(clusters * per_cluster);
  for (std::size_t c = 0; c < clusters; ++c) {
    const Vec2 parent = uniform_in_disc({0.0, 0.0}, radius, rng);
    for (std::size_t i = 0; i < per_cluster; ++i)
      p.push_back(uniform_in_disc(parent, cluster_radius, rng));
  }
  return p;
}

Placement line(std::size_t n, Vec2 start, double spacing) {
  DRN_EXPECTS(spacing > 0.0);
  Placement p;
  p.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    p.push_back({start.x + static_cast<double>(i) * spacing, start.y});
  return p;
}

Placement ring(std::size_t n, double radius) {
  DRN_EXPECTS(radius > 0.0);
  Placement p;
  p.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double theta =
        2.0 * std::numbers::pi * static_cast<double>(i) / static_cast<double>(n);
    p.push_back({radius * std::cos(theta), radius * std::sin(theta)});
  }
  return p;
}

double expected_neighbors(std::size_t n, double region_radius, double range) {
  DRN_EXPECTS(region_radius > 0.0);
  DRN_EXPECTS(range >= 0.0);
  const double density = static_cast<double>(n) /
                         (std::numbers::pi * region_radius * region_radius);
  return density * std::numbers::pi * range * range;
}

std::vector<double> nearest_neighbor_distances(const Placement& placement) {
  const std::size_t n = placement.size();
  std::vector<double> out(n, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d2 = distance_sq(placement[i], placement[j]);
      if (d2 < out[i] * out[i]) out[i] = std::sqrt(d2);
      if (d2 < out[j] * out[j]) out[j] = std::sqrt(d2);
    }
  }
  return out;
}

}  // namespace drn::geo
