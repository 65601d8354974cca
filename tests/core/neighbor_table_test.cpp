#include "core/neighbor_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"
#include "radio/units.hpp"

namespace drn::core {
namespace {

Neighbor make(StationId id, double gain, bool respect = false) {
  Neighbor n;
  n.id = id;
  n.gain = gain;
  n.respect_receive_windows = respect;
  return n;
}

TEST(NeighborTable, AddAndFind) {
  NeighborTable t;
  t.add(make(3, 0.5));
  t.add(make(7, 0.25, true));
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(3), nullptr);
  EXPECT_DOUBLE_EQ(t.find(3)->gain, 0.5);
  ASSERT_NE(t.find(7), nullptr);
  EXPECT_TRUE(t.find(7)->respect_receive_windows);
  EXPECT_EQ(t.find(4), nullptr);
}

TEST(NeighborTable, AllSpansEntries) {
  NeighborTable t;
  t.add(make(1, 0.1));
  t.add(make(2, 0.2));
  const auto all = t.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].id, 1u);
  EXPECT_EQ(all[1].id, 2u);
}

TEST(NeighborTable, RejectsDuplicatesAndInvalid) {
  NeighborTable t;
  t.add(make(1, 0.1));
  EXPECT_THROW(t.add(make(1, 0.2)), ContractViolation);
  EXPECT_THROW(t.add(make(kNoStation, 0.1)), ContractViolation);
  EXPECT_THROW(t.add(make(2, 0.0)), ContractViolation);
}

TEST(NeighborTable, EraseRemovesOnlyTheNamedNeighbor) {
  NeighborTable t;
  t.add(make(1, 0.1));
  t.add(make(2, 0.2));
  t.add(make(3, 0.3));
  EXPECT_TRUE(t.erase(2));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(2), nullptr);
  ASSERT_NE(t.find(1), nullptr);
  ASSERT_NE(t.find(3), nullptr);
  // Erasing an unknown id reports false and leaves the table alone.
  EXPECT_FALSE(t.erase(2));
  EXPECT_FALSE(t.erase(9));
  EXPECT_EQ(t.size(), 2u);
  // An erased id can be re-adopted later (the churn rejoin path).
  t.add(make(2, 0.25));
  ASSERT_NE(t.find(2), nullptr);
  EXPECT_DOUBLE_EQ(t.find(2)->gain, 0.25);
}

/// The table's contract by linear scan: entries in insertion order, an
/// erase closes the gap.
class ReferenceTable {
 public:
  [[nodiscard]] Neighbor* find(StationId id) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [id](const Neighbor& n) { return n.id == id; });
    return it == entries_.end() ? nullptr : &*it;
  }
  void add(const Neighbor& n) { entries_.push_back(n); }
  bool erase(StationId id) {
    const Neighbor* n = find(id);
    if (n == nullptr) return false;
    entries_.erase(entries_.begin() + (n - entries_.data()));
    return true;
  }
  [[nodiscard]] const std::vector<Neighbor>& all() const { return entries_; }

 private:
  std::vector<Neighbor> entries_;
};

void expect_same(const NeighborTable& t, ReferenceTable& ref) {
  ASSERT_EQ(t.size(), ref.all().size());
  const auto all = t.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, ref.all()[i].id) << "insertion order broken at " << i;
    EXPECT_EQ(all[i].gain, ref.all()[i].gain);
    EXPECT_EQ(t.position(all[i].id), i);
    ASSERT_EQ(t.find(all[i].id), &all[i]);
  }
}

TEST(NeighborTable, MatchesLinearScanReferenceUnderRandomOps) {
  // Ids from three bands: small dense ids, ids spread over the whole range,
  // and the top of the range next to kNoStation (kBroadcast included).
  std::vector<StationId> pool;
  for (StationId id = 0; id < 700; ++id) pool.push_back(id);
  for (StationId k = 1; k <= 40; ++k) pool.push_back(kNoStation - k);
  for (std::uint32_t k = 1; k < 60; ++k) pool.push_back(k * 71'582'788U);

  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    NeighborTable t;
    ReferenceTable ref;
    // The add share sets the size the table churns around (about 480 or
    // 550 of the 800 ids), reached through several index resizes.
    const double add_share = seed % 2 == 1 ? 0.45 : 0.3;
    for (int step = 0; step < 6000; ++step) {
      const StationId id = pool[rng.uniform_index(pool.size())];
      const double op = rng.uniform();
      if (op < add_share) {
        if (ref.find(id) != nullptr) {
          EXPECT_THROW(t.add(make(id, 1.0)), ContractViolation);
          continue;
        }
        const Neighbor n = make(id, 1.0 + step);
        t.add(n);
        ref.add(n);
      } else if (op < add_share + 0.2) {
        ASSERT_EQ(t.erase(id), ref.erase(id)) << "id " << id;
      } else if (op < add_share + 0.45) {
        const Neighbor* got = t.find(id);
        const Neighbor* want = ref.find(id);
        ASSERT_EQ(got == nullptr, want == nullptr) << "id " << id;
        if (got != nullptr) {
          EXPECT_EQ(got->gain, want->gain);
        }
      } else {
        // Mutable access the way a beacon reaches it: id -> position -> entry.
        const std::uint32_t at = t.position(id);
        Neighbor* want = ref.find(id);
        ASSERT_EQ(at == IdIndex::kAbsent, want == nullptr) << "id " << id;
        if (want != nullptr) {
          t.at_position(at).gain += 0.5;
          want->gain += 0.5;
        }
      }
      if (step % 500 == 0) expect_same(t, ref);
    }
    expect_same(t, ref);
    EXPECT_EQ(t.find(kNoStation), nullptr);

    // A copy (the churn-rejoin snapshot) finds every id on its own, also
    // after the original changes.
    const NeighborTable copy = t;
    expect_same(copy, ref);
    ASSERT_GT(t.size(), 0U);
    t.erase(t.all().front().id);
    for (const StationId id : pool)
      EXPECT_EQ(copy.find(id) == nullptr, ref.find(id) == nullptr);
  }
}

TEST(NeighborTable, EraseThenReaddAcrossIndexResizes) {
  NeighborTable t;
  ReferenceTable ref;
  for (StationId id = 0; id < 1000; ++id) {
    t.add(make(id, 1.0 + id));
    ref.add(make(id, 1.0 + id));
  }
  // Erase every third id, then re-add them: they land at the end, in
  // re-add order, and the survivors keep their relative order.
  for (StationId id = 0; id < 1000; id += 3) {
    ASSERT_TRUE(t.erase(id));
    ref.erase(id);
  }
  expect_same(t, ref);
  for (int id = 999; id >= 0; id -= 3) {
    t.add(make(static_cast<StationId>(id), 0.5));
    ref.add(make(static_cast<StationId>(id), 0.5));
  }
  expect_same(t, ref);
  // Empty the table completely, then reuse it.
  for (StationId id = 0; id < 1000; ++id) ASSERT_TRUE(t.erase(id));
  EXPECT_EQ(t.size(), 0U);
  EXPECT_EQ(t.find(0), nullptr);
  t.add(make(kNoStation - 1, 0.25));
  ASSERT_NE(t.find(kNoStation - 1), nullptr);
  EXPECT_EQ(t.position(kNoStation - 1), 0U);
}

TEST(Significance, OneDbRuleFromSection73) {
  // "In order for the addition of a weak signal to increase the overall
  // level of interference by more than 1 dB its power level must be at
  // least one fourth the power level of the overall interference."
  const double budget = 1.0;  // tolerated interference, watts
  // Delivered power exactly one quarter of the budget: not strictly greater,
  // so not significant.
  EXPECT_FALSE(interferes_significantly(0.25, 1.0, budget));
  EXPECT_TRUE(interferes_significantly(0.26, 1.0, budget));
  EXPECT_FALSE(interferes_significantly(0.01, 1.0, budget));
  // Confirm the 1 dB equivalence: budget + budget/4 is ~0.97 dB louder.
  EXPECT_NEAR(radio::to_db(1.25), 0.969, 1e-3);
}

TEST(Significance, ScalesWithPower) {
  EXPECT_TRUE(interferes_significantly(0.01, 100.0, 1.0));
  EXPECT_FALSE(interferes_significantly(0.01, 10.0, 1.0));
}

TEST(Significance, Contracts) {
  EXPECT_THROW((void)interferes_significantly(0.0, 1.0, 1.0),
               ContractViolation);
  EXPECT_THROW((void)interferes_significantly(1.0, 0.0, 1.0),
               ContractViolation);
  EXPECT_THROW((void)interferes_significantly(1.0, 1.0, 0.0),
               ContractViolation);
}

}  // namespace
}  // namespace drn::core
