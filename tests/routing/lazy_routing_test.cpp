// Lazy per-destination routing trees against the eager oracle: one complete
// shortest_paths() per destination, which is what the all-pairs tables held.
// Every next hop and cost must match bit for bit, whatever order the queries
// arrive in (each order pauses the per-destination Dijkstras at different
// points).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"
#include "routing/dijkstra.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace drn::routing {
namespace {

/// tab_sec8's gains: `stations` in a `region_m` disc, as runner::make_scenario
/// builds them.
radio::PropagationMatrix section8_gains(std::size_t stations, double region_m,
                                        std::uint64_t seed) {
  return runner::make_scenario(stations, region_m, seed,
                               runner::multihop_config())
      .gains;
}

/// The network builder's neighbour threshold, which runner::make_scenario
/// also routes over.
double min_gain() {
  const auto cfg = runner::multihop_config();
  return cfg.target_received_w / cfg.max_power_w;
}

Graph section8_graph(std::size_t stations, double region_m,
                     std::uint64_t seed) {
  return Graph::min_energy(section8_gains(stations, region_m, seed),
                           min_gain());
}

/// A 30 x 30 lattice with every edge costing 0.5.
Graph tie_lattice() {
  constexpr StationId kSide = 30;
  Graph g(kSide * kSide);
  for (StationId y = 0; y < kSide; ++y) {
    for (StationId x = 0; x < kSide; ++x) {
      const StationId s = y * kSide + x;
      if (x + 1 < kSide) g.add_edge(s, s + 1, 0.5, 1.0);
      if (y + 1 < kSide) g.add_edge(s, s + kSide, 0.5, 1.0);
    }
  }
  return g;
}

/// Every (at, dst) pair, at != dst, in a seeded random order.
std::vector<std::pair<StationId, StationId>> shuffled_pairs(
    std::size_t n, std::uint64_t seed) {
  std::vector<std::pair<StationId, StationId>> pairs;
  for (StationId at = 0; at < n; ++at)
    for (StationId dst = 0; dst < n; ++dst)
      if (at != dst) pairs.emplace_back(at, dst);
  Rng rng(seed);
  for (std::size_t i = pairs.size(); i > 1; --i)
    std::swap(pairs[i - 1], pairs[rng.uniform_index(i)]);
  return pairs;
}

/// Asserts that lazy answers equal the eager oracle exactly, queried in a
/// random order.
void expect_matches_oracle(const Graph& g, std::uint64_t order_seed) {
  std::vector<PathTree> oracle;
  for (StationId dst = 0; dst < g.size(); ++dst)
    oracle.push_back(shortest_paths(g, dst));
  const auto tables = RoutingTables::build(g);
  std::size_t mismatches = 0;
  for (const auto& [at, dst] : shuffled_pairs(g.size(), order_seed)) {
    const PathTree& t = oracle[dst];
    // Exact equality: the lazy trees run the very same relaxations.
    if (tables.next_hop(at, dst) != t.parent[at]) ++mismatches;
    if (tables.cost(at, dst) != t.cost[at]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(tables.stats().trees, g.size());
}

TEST(LazyRouting, MatchesEagerTablesOnSection8Seeds) {
  // tab_sec8's 100-station cells (seed 606) and a 1000-station cell at its
  // density (seed 707).
  for (std::uint64_t i = 0; i < 3; ++i) {
    expect_matches_oracle(
        section8_graph(100, 1600.0, runner::trial_seed(606, i)), i);
  }
  expect_matches_oracle(
      section8_graph(1000, 5000.0, runner::trial_seed(707, 0)), 7);
}

TEST(LazyRouting, MatchesEagerTablesUnderCostTies) {
  // Unit costs: every tie in the heap is broken by station id, exactly as in
  // shortest_paths.
  expect_matches_oracle(
      Graph::min_hop(section8_gains(120, 1600.0, runner::trial_seed(606, 5)),
                     min_gain()),
      11);
}

TEST(LazyRouting, MatchesEagerTablesOnLatticeWithExactTies) {
  // A 30 x 30 lattice with every edge costing 0.5: all path sums are exact
  // multiples of 0.5, so many frontier items tie on cost and only the
  // station id orders them, and the wide diamond-shaped frontiers make deep
  // heaps. Decrease-key must settle stations in shortest_paths' order under
  // queries interleaved across all 900 trees.
  expect_matches_oracle(tie_lattice(), 13);
}

TEST(LazyRouting, MatchesEagerTablesOnDisconnectedGraph) {
  Graph g(6);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 2, 2.0, 0.5);
  g.add_edge(3, 4, 1.0, 1.0);  // station 5 is isolated
  expect_matches_oracle(g, 3);
}

TEST(LazyRouting, BuildsTreesOnlyForQueriedDestinations) {
  const Graph g = section8_graph(200, 2263.0, runner::trial_seed(606, 1));
  const auto tables = RoutingTables::build(g);
  const std::size_t empty_bytes = tables.memory_bytes();
  EXPECT_EQ(tables.stats().trees, 0u);
  EXPECT_EQ(tables.next_hop(5, 5), kNoStation);  // no tree for at == dst
  EXPECT_EQ(tables.stats().trees, 0u);

  (void)tables.next_hop(3, 17);
  (void)tables.next_hop(40, 17);
  (void)tables.cost(99, 17);
  (void)tables.next_hop(3, 150);
  const auto stats = tables.stats();
  EXPECT_EQ(stats.trees, 2u);
  EXPECT_GT(stats.settled, 0u);
  EXPECT_LE(stats.settled, 2u * g.size());
  EXPECT_GT(tables.memory_bytes(), empty_bytes);
  // Two trees of one parent word per station plus 3 KB of slack for their
  // frontiers (the growth is 3.4 KB in all): nothing like the M x M tables,
  // and a per-tree cost array (2 x M x 8 B more) would not fit.
  EXPECT_LT(tables.memory_bytes() - empty_bytes,
            2 * g.size() * sizeof(StationId) + 3072);
}

TEST(LazyRouting, PausesAtTheQueriedStation) {
  // A path 0-1-2-...-9 toward 0: station s's entry is final once s - 1 is
  // settled, so a query from 1 settles station 0 only, and a later query
  // from 9 resumes the same tree through station 8.
  Graph g(10);
  for (StationId s = 0; s + 1 < 10; ++s) g.add_edge(s, s + 1, 1.0, 1.0);
  const auto tables = RoutingTables::build(g);
  EXPECT_EQ(tables.next_hop(1, 0), 0u);
  EXPECT_EQ(tables.stats().settled, 1u);
  EXPECT_EQ(tables.next_hop(9, 0), 8u);
  EXPECT_EQ(tables.cost(9, 0), 9.0);
  EXPECT_EQ(tables.stats().trees, 1u);
  EXPECT_EQ(tables.stats().settled, 9u);
  EXPECT_TRUE(tables.prefix_consistent());  // queries every destination
  EXPECT_EQ(tables.stats().trees, 10u);
}

/// Where a station stands in a tree paused after its farthest query reached
/// cost `reach`: settled if its final cost is below `reach` (the run pops
/// stations in cost order and stops at the first one not below it), on the
/// frontier if a settled station neighbours it, unreached otherwise.
enum Where { kSettled, kFrontier, kUnreached };

Where where(const Graph& g, const PathTree& t, double reach, StationId s) {
  if (t.cost[s] < reach) return kSettled;
  for (const Edge& e : g.edges(s))
    if (t.cost[e.to] < reach) return kFrontier;
  return kUnreached;
}

/// Resumes the trees toward `dsts` in turns, each turn asking one tree about
/// a station it settled in an earlier run, a frontier station and one a few
/// places past the frontier, so every run starts from a pause that left
/// another tree's costs in the shared scratch. Every answer must equal the
/// oracle's bit for bit, and the settled count must be exactly what the
/// pauses imply. Returns how many queries hit each kind of station.
std::vector<std::size_t> expect_interleaved_match(
    const Graph& g, const std::vector<StationId>& dsts, std::size_t rounds,
    std::uint64_t seed) {
  std::vector<PathTree> oracle;
  std::vector<double> reach(dsts.size(), 0.0);  // no query yet: none settled
  for (const StationId dst : dsts) oracle.push_back(shortest_paths(g, dst));
  const auto tables = RoutingTables::build(g);
  Rng rng(seed);
  std::vector<std::size_t> hits(3, 0);
  std::size_t mismatches = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t d = 0; d < dsts.size(); ++d) {
      const PathTree& t = oracle[d];
      for (const Where kind : {kSettled, kFrontier, kUnreached}) {
        std::vector<StationId> pick;
        for (StationId s = 0; s < g.size(); ++s)
          if (s != dsts[d] && where(g, t, reach[d], s) == kind)
            pick.push_back(s);
        if (pick.empty()) continue;
        if (kind == kUnreached) {  // one of the nearest: resume a little way
          std::sort(pick.begin(), pick.end(), [&](StationId a, StationId b) {
            return std::pair(t.cost[a], a) < std::pair(t.cost[b], b);
          });
          pick.resize(std::min<std::size_t>(pick.size(), 8));
        }
        const StationId at = pick[rng.uniform_index(pick.size())];
        ++hits[kind];
        if (tables.next_hop(at, dsts[d]) != t.parent[at]) ++mismatches;
        if (tables.cost(at, dsts[d]) != t.cost[at]) ++mismatches;
        reach[d] = std::max(reach[d], t.cost[at]);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  std::uint64_t settled = 0;
  for (std::size_t d = 0; d < dsts.size(); ++d)
    for (StationId s = 0; s < g.size(); ++s)
      settled += oracle[d].cost[s] < reach[d] ? 1 : 0;
  EXPECT_EQ(tables.stats().trees, dsts.size());
  EXPECT_EQ(tables.stats().settled, settled);
  return hits;
}

TEST(LazyRouting, InterleavedResumesShareScratch) {
  // A tab_sec8 cell and the tie lattice, three trees each.
  const Graph cell = section8_graph(100, 1600.0, runner::trial_seed(606, 3));
  const Graph lattice = tie_lattice();
  for (const auto& [g, dsts] :
       {std::pair(&cell, std::vector<StationId>{7, 50, 93}),
        std::pair(&lattice, std::vector<StationId>{0, 435, 899})}) {
    const auto hits = expect_interleaved_match(*g, dsts, 40, 17);
    EXPECT_GT(hits[kSettled], 0u);
    EXPECT_GT(hits[kFrontier], 0u);
    EXPECT_GT(hits[kUnreached], 0u);
  }

  // Two trees on a path 0-1-...-9, toward either end: the settled count
  // after each query, by hand. Dearer parallel arcs before and after the
  // unit one between 4 and 5 must not enter a cost.
  Graph path(10);
  path.add_edge(4, 5, 2.5, 1.0);
  for (StationId s = 0; s + 1 < 10; ++s) path.add_edge(s, s + 1, 1.0, 1.0);
  path.add_edge(4, 5, 3.5, 1.0);
  const auto tables = RoutingTables::build(path);
  EXPECT_EQ(tables.next_hop(3, 0), 2u);  // settles 0, 1, 2
  EXPECT_EQ(tables.next_hop(6, 9), 7u);  // settles 9, 8, 7
  EXPECT_EQ(tables.stats().settled, 6u);
  EXPECT_EQ(tables.next_hop(1, 0), 0u);  // settled in the first run
  EXPECT_EQ(tables.cost(3, 0), 3.0);     // the frontier's minimum: final
  EXPECT_EQ(tables.stats().settled, 6u);
  EXPECT_EQ(tables.cost(5, 9), 4.0);     // settles 6
  EXPECT_EQ(tables.next_hop(8, 9), 9u);  // settled in an earlier run
  EXPECT_EQ(tables.stats().settled, 7u);
  EXPECT_EQ(tables.next_hop(9, 0), 8u);  // settles 3 to 8
  EXPECT_EQ(tables.cost(0, 9), 9.0);     // settles 5 to 1
  EXPECT_EQ(tables.stats().settled, 18u);
  for (const StationId dst : {StationId{0}, StationId{9}}) {
    const PathTree t = shortest_paths(path, dst);
    for (StationId at = 0; at < 10; ++at) {
      if (at == dst) continue;
      EXPECT_EQ(tables.next_hop(at, dst), t.parent[at]);
      EXPECT_EQ(tables.cost(at, dst), t.cost[at]);
    }
  }
  EXPECT_EQ(tables.stats().trees, 2u);
}

TEST(LazyRouting, RouterSharesTreesAndOutlivesTables) {
  const Graph g = section8_graph(100, 1600.0, runner::trial_seed(606, 2));
  std::function<StationId(StationId, StationId)> router;
  std::vector<StationId> expected;
  {
    const auto tables = RoutingTables::build(g);
    router = tables.router();
    (void)router(4, 60);  // the closure's query builds the tables' tree
    EXPECT_EQ(tables.stats().trees, 1u);
    const PathTree oracle = shortest_paths(g, 60);
    expected = oracle.parent;
  }
  for (StationId at = 0; at < g.size(); ++at) {
    if (at != 60) {
      EXPECT_EQ(router(at, 60), expected[at]);
    }
  }
}

TEST(LazyRouting, Contracts) {
  Graph g(3);
  g.add_edge(0, 1, 1.0, 1.0);
  const auto tables = RoutingTables::build(g);
  EXPECT_THROW((void)tables.next_hop(3, 0), ContractViolation);
  EXPECT_THROW((void)tables.next_hop(0, 3), ContractViolation);
  EXPECT_THROW((void)tables.cost(0, 7), ContractViolation);
  EXPECT_EQ(tables.stats().trees, 0u);
}

}  // namespace
}  // namespace drn::routing
