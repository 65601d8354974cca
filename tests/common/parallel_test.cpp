#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"
#include "geo/placement.hpp"
#include "radio/propagation.hpp"
#include "radio/propagation_matrix.hpp"

namespace drn {
namespace {

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<int> hits(257, 0);
  parallel_for(hits.size(), 4, [&hits](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, RethrowsLowestIndexException) {
  std::atomic<int> completed{0};
  try {
    parallel_for(64, 4, [&completed](std::size_t i) {
      if (i == 7) throw std::out_of_range("seven");
      if (i == 40) throw std::runtime_error("forty");
      ++completed;
    });
    FAIL() << "expected an exception";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "seven");  // lowest failing index wins
  }
  // All non-throwing iterations still ran (no early abandonment).
  EXPECT_EQ(completed.load(), 62);
}

TEST(ParallelFor, ContractViolationInAWorkerReachesTheCaller) {
  const auto body = [](std::size_t i) { DRN_EXPECTS(i != 33); };
  EXPECT_THROW(parallel_for(64, 4, body), ContractViolation);
  EXPECT_THROW(parallel_for(64, 1, body), ContractViolation);
}

TEST(ParallelFor, ZeroIterations) {
  parallel_for(0, 2, [](std::size_t) { FAIL(); });
  parallel_row_blocks(0, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ParallelFor, HardwareJobsAtLeastOne) { EXPECT_GE(hardware_jobs(), 1u); }

TEST(ParallelFor, RowBlocksCoverEveryRowOnce) {
  std::vector<int> hits(2 * kRowsPerBlock + 5, 0);
  parallel_row_blocks(hits.size(), [&hits](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin % kRowsPerBlock, 0u);
    EXPECT_LE(end - begin, kRowsPerBlock);
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, NestedCallRunsOnTheCallersThread) {
  std::vector<int> mismatches(8, 0);
  parallel_for(mismatches.size(), 4, [&mismatches](std::size_t outer) {
    const auto caller = std::this_thread::get_id();
    parallel_for(16, 4, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) ++mismatches[outer];
    });
  });
  for (int m : mismatches) EXPECT_EQ(m, 0);
}

TEST(ParallelFor, NestedDenseBuildEqualsTopLevelBuild) {
  Rng rng(19);
  const auto placement = geo::uniform_disc(300, 1000.0, rng);
  const radio::LogNormalShadowing model(
      std::make_shared<radio::FreeSpacePropagation>(), radio::Decibels{6.0},
      7);
  const auto top =
      radio::PropagationMatrix::from_placement(placement, model);  // parallel
  std::vector<std::vector<double>> nested(2);
  parallel_for(nested.size(), 2, [&](std::size_t k) {
    const auto m = radio::PropagationMatrix::from_placement(placement, model);
    for (StationId i = 0; i < m.size(); ++i)  // serial
      for (StationId j = 0; j < m.size(); ++j)
        nested[k].push_back(m.gain(i, j));
  });
  for (const auto& n : nested) {
    ASSERT_EQ(n.size(), top.size() * top.size());
    std::size_t differing = 0;
    for (StationId i = 0; i < top.size(); ++i)
      for (StationId j = 0; j < top.size(); ++j)
        if (std::bit_cast<std::uint64_t>(n[i * top.size() + j]) !=
            std::bit_cast<std::uint64_t>(top.gain(i, j)))
          ++differing;
    EXPECT_EQ(differing, 0u);
  }
}

}  // namespace
}  // namespace drn
