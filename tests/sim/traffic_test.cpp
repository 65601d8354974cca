#include "sim/traffic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/expects.hpp"

namespace drn::sim {
namespace {

TEST(Traffic, UniformPairsDistinctAndInRange) {
  Rng rng(3);
  const auto choose = uniform_pairs(10);
  std::set<StationId> sources;
  std::set<StationId> destinations;
  for (int i = 0; i < 2000; ++i) {
    const auto [src, dst] = choose(rng);
    EXPECT_NE(src, dst);
    EXPECT_LT(src, 10u);
    EXPECT_LT(dst, 10u);
    sources.insert(src);
    destinations.insert(dst);
  }
  EXPECT_EQ(sources.size(), 10u);       // all stations originate
  EXPECT_EQ(destinations.size(), 10u);  // all stations receive
}

TEST(Traffic, UniformPairsTwoStations) {
  Rng rng(4);
  const auto choose = uniform_pairs(2);
  for (int i = 0; i < 50; ++i) {
    const auto [src, dst] = choose(rng);
    EXPECT_EQ(dst, 1u - src);
  }
}

TEST(Traffic, FixedPair) {
  Rng rng(5);
  const auto choose = fixed_pair(3, 7);
  const auto [src, dst] = choose(rng);
  EXPECT_EQ(src, 3u);
  EXPECT_EQ(dst, 7u);
  EXPECT_THROW((void)fixed_pair(2, 2), ContractViolation);
}

TEST(Traffic, NeighborPairsRespectsLists) {
  Rng rng(6);
  std::vector<std::vector<StationId>> nbrs = {{1, 2}, {0}, {}, {0}};
  const auto choose = neighbor_pairs(nbrs);
  for (int i = 0; i < 500; ++i) {
    const auto [src, dst] = choose(rng);
    ASSERT_LT(src, nbrs.size());
    ASSERT_FALSE(nbrs[src].empty());  // station 2 never chosen as source
    bool found = false;
    for (StationId n : nbrs[src]) found |= (n == dst);
    EXPECT_TRUE(found);
  }
}

TEST(Traffic, PoissonTrafficRateAndOrdering) {
  Rng rng(7);
  const double rate = 200.0;
  const double duration = 50.0;
  const auto traffic =
      poisson_traffic(rate, duration, 1000.0, uniform_pairs(5), rng);
  // Count within 5 sigma of rate*duration.
  const double expected = rate * duration;
  EXPECT_NEAR(static_cast<double>(traffic.size()), expected,
              5.0 * std::sqrt(expected));
  for (std::size_t i = 0; i + 1 < traffic.size(); ++i)
    EXPECT_LE(traffic[i].time_s, traffic[i + 1].time_s);
  for (const auto& inj : traffic) {
    EXPECT_GE(inj.time_s, 0.0);
    EXPECT_LT(inj.time_s, duration);
    EXPECT_DOUBLE_EQ(inj.packet.size_bits, 1000.0);
  }
}

TEST(Traffic, PoissonInterarrivalsExponential) {
  Rng rng(8);
  const auto traffic =
      poisson_traffic(100.0, 200.0, 1.0, fixed_pair(0, 1), rng);
  double sum = 0.0;
  for (std::size_t i = 0; i + 1 < traffic.size(); ++i)
    sum += traffic[i + 1].time_s - traffic[i].time_s;
  const double mean_gap = sum / static_cast<double>(traffic.size() - 1);
  EXPECT_NEAR(mean_gap, 0.01, 0.001);
}

TEST(Traffic, Contracts) {
  Rng rng(1);
  EXPECT_THROW((void)uniform_pairs(1), ContractViolation);
  EXPECT_THROW((void)poisson_traffic(0.0, 1.0, 1.0, fixed_pair(0, 1), rng),
               ContractViolation);
  EXPECT_THROW((void)poisson_traffic(1.0, 0.0, 1.0, fixed_pair(0, 1), rng),
               ContractViolation);
  EXPECT_THROW((void)poisson_traffic(1.0, 1.0, 0.0, fixed_pair(0, 1), rng),
               ContractViolation);
}

}  // namespace
}  // namespace drn::sim
