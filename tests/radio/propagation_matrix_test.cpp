#include "radio/propagation_matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"
#include "radio/interference_engine.hpp"

namespace drn::radio {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A full row-major M x M reference: g[i * m + j] is the gain from j to i.
struct FullReference {
  std::size_t m;
  std::vector<double> g;

  static FullReference of(const geo::Placement& placement,
                          const PropagationModel& model, double self_gain) {
    const std::size_t m = placement.size();
    FullReference ref{m, std::vector<double>(m * m, 0.0)};
    for (std::size_t i = 0; i < m; ++i) {
      ref.g[i * m + i] = self_gain;
      for (std::size_t j = i + 1; j < m; ++j)
        ref.set(i, j, model.power_gain(placement[i], placement[j]).value());
    }
    return ref;
  }
  void set(std::size_t a, std::size_t b, double v) {
    g[a * m + b] = v;
    g[b * m + a] = v;
  }
};

/// Counts the (i, j) whose gain(i, j) differs in any bit from the reference.
template <class Gains>
std::size_t mismatches(const Gains& gains, const FullReference& ref) {
  std::size_t bad = 0;
  for (StationId i = 0; i < ref.m; ++i)
    for (StationId j = 0; j < ref.m; ++j)
      if (bits(gains.gain(i, j)) != bits(ref.g[i * ref.m + j])) ++bad;
  return bad;
}

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
  for (StationId i = 0; i < m.size(); ++i)
    for (StationId j = 0; j < m.size(); ++j)
      EXPECT_EQ(m.gain(i, j), m.gain(j, i));
}

TEST(PropagationMatrix, SetGainUpdatesBothDirections) {
  PropagationMatrix m(4);
  m.set_gain(1, 3, radio::LinearGain{0.5});
  EXPECT_DOUBLE_EQ(m.gain(1, 3), 0.5);
  EXPECT_DOUBLE_EQ(m.gain(3, 1), 0.5);
  for (StationId i = 0; i < m.size(); ++i)
    for (StationId j = 0; j < m.size(); ++j)
      EXPECT_EQ(m.gain(i, j), m.gain(j, i));
}

TEST(PropagationMatrix, PackedStorageMatchesFullReferenceBitForBit) {
  const FreeSpacePropagation model;
  for (std::size_t m : {1, 2, 63, 64, 65, 257}) {
    Rng rng(m + 100);
    const auto placement = geo::uniform_disc(m, 1000.0, rng);
    const auto gains =
        PropagationMatrix::from_placement(placement, model, LinearGain{3.0});
    const auto ref = FullReference::of(placement, model, 3.0);
    ASSERT_EQ(gains.size(), m);
    EXPECT_EQ(mismatches(gains, ref), 0u) << "M = " << m;
    std::size_t row_bad = 0;
    for (StationId i = 0; i < m; ++i) {
      const PropagationMatrix::Row r = gains.row(i);
      for (StationId j = 0; j < m; ++j)
        if (bits(r[j]) != bits(ref.g[i * m + j])) ++row_bad;
    }
    EXPECT_EQ(row_bad, 0u) << "M = " << m;
    EXPECT_EQ(gains.memory_bytes(),
              m * (m + 1) / 2 * sizeof(double) + m * sizeof(std::size_t));
  }
}

TEST(PropagationMatrix, SetGainInEitherArgumentOrderMatchesFullReference) {
  Rng rng(9);
  const auto placement = geo::uniform_disc(65, 1000.0, rng);
  const FreeSpacePropagation model;
  auto gains = PropagationMatrix::from_placement(placement, model);
  auto ref = FullReference::of(placement, model, 1.0);
  for (int k = 0; k < 200; ++k) {
    const auto a = static_cast<StationId>(rng.uniform_index(65));
    const auto b = static_cast<StationId>(rng.uniform_index(65));
    const double v = 1.0e-6 * (k + 1);
    if (k % 2 == 0)
      gains.set_gain(a, b, LinearGain{v});
    else
      gains.set_gain(b, a, LinearGain{v});
    ref.set(a, b, v);
  }
  EXPECT_EQ(mismatches(gains, ref), 0u);
}

TEST(PropagationMatrix, MobilityRowRewriteMatchesFullReference) {
  Rng rng(21);
  auto placement = geo::uniform_disc(64, 1000.0, rng);
  auto model = std::make_shared<DualSlopePropagation>(Meters{150.0});
  const double self_gain = 2.0;
  auto engine = make_compensated_engine(PropagationMatrix::from_placement(
      placement, *model, LinearGain{self_gain}));
  engine->enable_mobility(placement, model, LinearGain{self_gain});
  for (const StationId s : {StationId{0}, StationId{31}, StationId{63}}) {
    placement[s] = {placement[s].x + 70.0, placement[s].y - 40.0};
    engine->station_moved(s, placement[s]);
  }
  const auto ref = FullReference::of(placement, *model, self_gain);
  EXPECT_EQ(mismatches(*engine, ref), 0u);
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
