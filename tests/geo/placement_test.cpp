#include "geo/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/expects.hpp"

namespace drn::geo {
namespace {

TEST(Placement, UniformDiscStaysInDisc) {
  Rng rng(7);
  const double radius = 50.0;
  const Placement p = uniform_disc(500, radius, rng);
  ASSERT_EQ(p.size(), 500u);
  for (const Vec2& v : p) EXPECT_LE(norm(v), radius);
}

TEST(Placement, UniformDiscIsAreaUniform) {
  // With r = R*sqrt(u), half the points fall inside radius R/sqrt(2).
  Rng rng(11);
  const double radius = 10.0;
  const Placement p = uniform_disc(20000, radius, rng);
  const double half_area_radius = radius / std::numbers::sqrt2;
  const auto inside = std::count_if(p.begin(), p.end(), [&](Vec2 v) {
    return norm(v) <= half_area_radius;
  });
  EXPECT_NEAR(static_cast<double>(inside) / 20000.0, 0.5, 0.02);
}

TEST(Placement, UniformDiscDeterministicPerSeed) {
  Rng a(3);
  Rng b(3);
  const Placement pa = uniform_disc(10, 1.0, a);
  const Placement pb = uniform_disc(10, 1.0, b);
  EXPECT_EQ(pa, pb);
  Rng c(4);
  EXPECT_NE(pa, uniform_disc(10, 1.0, c));
}

TEST(Placement, ClusteredDiscCountAndSpread) {
  Rng rng(13);
  const Placement p = clustered_disc(8, 25, 100.0, 5.0, rng);
  ASSERT_EQ(p.size(), 200u);
  // Every daughter lies within cluster_radius + radius of the origin.
  for (const Vec2& v : p) EXPECT_LE(norm(v), 105.0);
}

TEST(Placement, LineSpacing) {
  const Placement p = line(4, {1.0, 2.0}, 3.0);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0], (Vec2{1.0, 2.0}));
  EXPECT_EQ(p[3], (Vec2{10.0, 2.0}));
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    EXPECT_DOUBLE_EQ(distance(p[i], p[i + 1]), 3.0);
}

TEST(Placement, RingEquidistantFromCenter) {
  const Placement p = ring(12, 4.0);
  ASSERT_EQ(p.size(), 12u);
  for (const Vec2& v : p) EXPECT_NEAR(norm(v), 4.0, 1e-12);
  // Consecutive points are equally spaced.
  const double chord = distance(p[0], p[1]);
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    EXPECT_NEAR(distance(p[i], p[i + 1]), chord, 1e-12);
}

TEST(Placement, ExpectedNeighborsMatchesSection6) {
  // Section 6: with reach R0 = 1/sqrt(pi*sigma) the expected neighbour count
  // is exactly 1; doubling the reach makes it 4.
  const std::size_t n = 1000;
  const double region = 100.0;
  const double density =
      static_cast<double>(n) / (std::numbers::pi * region * region);
  const double r0 = 1.0 / std::sqrt(std::numbers::pi * density);
  EXPECT_NEAR(expected_neighbors(n, region, r0), 1.0, 1e-9);
  EXPECT_NEAR(expected_neighbors(n, region, 2.0 * r0), 4.0, 1e-9);
}

TEST(Placement, NearestNeighborDistancesBruteForce) {
  const Placement p = {{0.0, 0.0}, {1.0, 0.0}, {10.0, 0.0}, {10.0, 2.0}};
  const auto d = nearest_neighbor_distances(p);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);
  EXPECT_DOUBLE_EQ(d[3], 2.0);
}

TEST(Placement, NearestNeighborScalesAsCharacteristicLength) {
  // Mean nearest-neighbour distance of a Poisson process of density sigma is
  // 1/(2 sqrt(sigma)) — the same order as the paper's R0 = 1/sqrt(pi sigma).
  Rng rng(21);
  const std::size_t n = 2000;
  const double region = 100.0;
  const Placement p = uniform_disc(n, region, rng);
  const auto d = nearest_neighbor_distances(p);
  double mean = 0.0;
  for (double x : d) mean += x;
  mean /= static_cast<double>(n);
  const double density =
      static_cast<double>(n) / (std::numbers::pi * region * region);
  EXPECT_NEAR(mean, 0.5 / std::sqrt(density), 0.15 / std::sqrt(density));
}

TEST(Placement, ContractViolations) {
  Rng rng(1);
  EXPECT_THROW(uniform_disc(5, 0.0, rng), ContractViolation);
  EXPECT_THROW(line(3, {0, 0}, 0.0), ContractViolation);
  EXPECT_THROW(ring(3, 0.0), ContractViolation);
}

}  // namespace
}  // namespace drn::geo
