#include "radio/propagation_matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace drn::radio {
namespace {

TEST(PropagationMatrix, EmptyConstructionHasSelfGainDiagonal) {
  const PropagationMatrix m(3, LinearGain{2.0});
  EXPECT_EQ(m.size(), 3u);
  for (StationId i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m.gain(i, i), 2.0);
    for (StationId j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(m.gain(i, j), 0.0);
      }
    }
  }
}

TEST(PropagationMatrix, FromPlacementMatchesModel) {
  const geo::Placement placement = {{0.0, 0.0}, {2.0, 0.0}, {0.0, 4.0}};
  const FreeSpacePropagation model;
  const auto m = PropagationMatrix::from_placement(placement, model);
  EXPECT_DOUBLE_EQ(m.gain(0, 1), 0.25);          // r = 2
  EXPECT_DOUBLE_EQ(m.gain(0, 2), 1.0 / 16.0);    // r = 4
  EXPECT_DOUBLE_EQ(m.gain(1, 2), 1.0 / 20.0);    // r = sqrt(20)
  EXPECT_DOUBLE_EQ(m.gain(0, 0), 1.0);           // default self gain
}

TEST(PropagationMatrix, IsSymmetric) {
  Rng rng(4);
  const auto placement = geo::uniform_disc(30, 100.0, rng);
  const FreeSpacePropagation model;
  const auto m = PropagationMatrix::from_placement(placement, model);
  EXPECT_TRUE(m.is_symmetric());
  for (StationId i = 0; i < m.size(); ++i)
    for (StationId j = 0; j < m.size(); ++j)
      EXPECT_DOUBLE_EQ(m.gain(i, j), m.gain(j, i));
}

TEST(PropagationMatrix, SetGainUpdatesBothDirections) {
  PropagationMatrix m(4);
  m.set_gain(1, 3, radio::LinearGain{0.5});
  EXPECT_DOUBLE_EQ(m.gain(1, 3), 0.5);
  EXPECT_DOUBLE_EQ(m.gain(3, 1), 0.5);
  EXPECT_TRUE(m.is_symmetric());
}

TEST(PropagationMatrix, Contracts) {
  EXPECT_THROW(PropagationMatrix(0), ContractViolation);
  EXPECT_THROW(PropagationMatrix(2, LinearGain{0.0}), ContractViolation);
  PropagationMatrix m(2);
  EXPECT_THROW((void)m.gain(0, 2), ContractViolation);
  EXPECT_THROW(m.set_gain(0, 1, radio::LinearGain{0.0}), ContractViolation);
  EXPECT_THROW((void)m.neighbors_at_least(0.0), ContractViolation);
}

TEST(PropagationMatrix, NeighborsAtLeastAreMirroredInIdOrder) {
  PropagationMatrix m(4, LinearGain{5.0});  // the diagonal never counts
  m.set_gain(0, 2, LinearGain{0.5});
  m.set_gain(3, 1, LinearGain{0.25});
  m.set_gain(2, 3, LinearGain{0.1});
  using Lists = std::vector<std::vector<StationId>>;
  EXPECT_EQ(m.neighbors_at_least(0.25), (Lists{{2}, {3}, {0}, {1}}));
  EXPECT_EQ(m.neighbors_at_least(0.1), (Lists{{2}, {3}, {0, 3}, {1, 2}}));
  EXPECT_EQ(m.neighbors_at_least(1.0), (Lists{{}, {}, {}, {}}));
}

TEST(PropagationMatrix, SelfGainConfigurable) {
  const geo::Placement placement = {{0.0, 0.0}, {1.0, 0.0}};
  const FreeSpacePropagation model;
  const auto m =
      PropagationMatrix::from_placement(placement, model, /*self_gain=*/LinearGain{42.0});
  EXPECT_DOUBLE_EQ(m.gain(0, 0), 42.0);
  EXPECT_DOUBLE_EQ(m.gain(1, 1), 42.0);
}

}  // namespace
}  // namespace drn::radio
