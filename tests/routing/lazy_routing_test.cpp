// Lazy per-destination routing trees against the eager oracle: one complete
// shortest_paths() per destination, which is what the all-pairs tables held.
// Every next hop and cost must match bit for bit, whatever order the queries
// arrive in (each order pauses the per-destination A* searches at different
// points, steered toward different stations).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <tuple>
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
  return runner::make_scenario({.stations = stations, .region_m = region_m},
                               seed)
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
  // A tree for each destination another station reaches: a query across
  // components builds none.
  std::size_t reached = 0;
  for (StationId dst = 0; dst < g.size(); ++dst) {
    for (StationId at = 0; at < g.size(); ++at) {
      if (at != dst && std::isfinite(oracle[dst].cost[at])) {
        ++reached;
        break;
      }
    }
  }
  EXPECT_EQ(tables.stats().trees, reached);
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
  // Unit costs: many predecessors reach a station at the same cost, and the
  // one shortest_paths settles first, by (cost, id), must win.
  expect_matches_oracle(
      Graph::min_hop(section8_gains(120, 1600.0, runner::trial_seed(606, 5)),
                     min_gain()),
      11);
}

TEST(LazyRouting, MatchesEagerTablesOnLatticeWithExactTies) {
  // A 30 x 30 lattice with every edge costing 0.5: all path sums are exact
  // multiples of 0.5, so most stations have two predecessors at the same
  // cost, and many frontier items tie on cost and bound. Under queries
  // interleaved across all 900 trees, each tree's parents must be the ones
  // shortest_paths picks, though A* settles in another order.
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
  // Above what the first query builds once (16 landmark costs and a
  // component label per station, and each arc's reverse): two trees of one
  // word per station plus 3 KB of slack for their frontiers and the run
  // scratch (the growth is 3.8 KB in all). Nothing like the M x M tables, and
  // a per-tree cost array (2 x M x 8 B more) would not fit.
  const std::size_t bounds_bytes =
      g.size() * (16 * sizeof(double) + sizeof(std::uint32_t)) +
      2 * g.edge_count() * sizeof(std::uint32_t);
  EXPECT_LT(tables.memory_bytes() - empty_bytes - bounds_bytes,
            2 * g.size() * sizeof(StationId) + 3072);
}

TEST(LazyRouting, CrossComponentQueryBuildsNoTree) {
  Graph g(5);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 2, 1.0, 1.0);
  g.add_edge(3, 4, 1.0, 1.0);
  const auto tables = RoutingTables::build(g);
  EXPECT_EQ(tables.next_hop(0, 3), kNoStation);
  EXPECT_EQ(tables.next_hop(4, 2), kNoStation);
  EXPECT_EQ(tables.cost(1, 4), std::numeric_limits<double>::infinity());
  EXPECT_EQ(tables.lower_bound(1, 4), std::numeric_limits<double>::infinity());
  EXPECT_EQ(tables.stats().trees, 0u);
  EXPECT_EQ(tables.stats().settled, 0u);
  EXPECT_EQ(tables.next_hop(2, 0), 1u);
  EXPECT_EQ(tables.next_hop(3, 4), 4u);
  EXPECT_EQ(tables.stats().trees, 2u);
}

TEST(LazyRouting, PausesAtTheQueriedStation) {
  // A path 0-1-2-...-9 toward 0. A run settles until the queried station
  // pops, so a query from 1 settles stations 0 and 1, and a later query from
  // 9 resumes the same tree and settles 2 to 9.
  Graph g(10);
  for (StationId s = 0; s + 1 < 10; ++s) g.add_edge(s, s + 1, 1.0, 1.0);
  const auto tables = RoutingTables::build(g);
  EXPECT_EQ(tables.next_hop(1, 0), 0u);
  EXPECT_EQ(tables.stats().settled, 2u);
  EXPECT_EQ(tables.next_hop(9, 0), 8u);
  EXPECT_EQ(tables.cost(9, 0), 9.0);
  EXPECT_EQ(tables.stats().trees, 1u);
  EXPECT_EQ(tables.stats().settled, 10u);
  EXPECT_TRUE(tables.prefix_consistent());  // queries every destination
  EXPECT_EQ(tables.stats().trees, 10u);
}

/// A model of one run toward `at` in a tree that has settled `settled`. With
/// a consistent bound every station pops at its final cost, in (cost + bound
/// toward at, cost, id) order, and the run stops once `at` pops: it settles
/// exactly the unsettled stations of at's component whose key is at most
/// at's. Marks them and returns them in the order they pop. No run starts if
/// `at` is settled or in another component.
std::vector<StationId> model_run(const RoutingTables& tables,
                                 const PathTree& t, StationId at,
                                 std::vector<bool>& settled) {
  std::vector<std::tuple<double, double, StationId>> popped;
  if (settled[at] || !std::isfinite(t.cost[at])) return {};
  const auto key = [&](StationId s) {
    return std::tuple(t.cost[s] + tables.lower_bound(s, at), t.cost[s], s);
  };
  const auto last = key(at);
  for (StationId s = 0; s < settled.size(); ++s) {
    if (!settled[s] && std::isfinite(t.cost[s]) && key(s) <= last)
      popped.push_back(key(s));
  }
  std::sort(popped.begin(), popped.end());
  std::vector<StationId> order;
  for (const auto& item : popped) {
    order.push_back(std::get<2>(item));
    settled[std::get<2>(item)] = true;
  }
  return order;
}

/// Where a station stands in a paused tree: settled by an earlier run, on
/// the frontier if a settled station neighbours it, unreached otherwise.
enum Where { kSettled, kFrontier, kUnreached };

Where where(const Graph& g, const std::vector<bool>& settled, StationId s) {
  if (settled[s]) return kSettled;
  for (const Edge& e : g.edges(s))
    if (settled[e.to]) return kFrontier;
  return kUnreached;
}

/// Resumes the trees toward `dsts` in turns, each turn asking one tree about
/// a station it settled in an earlier run, a frontier station and one a few
/// places past the frontier, so every run starts from a pause that left
/// another tree's costs in the shared scratch. Every answer must equal the
/// oracle's bit for bit, and the settled count must be exactly model_run's.
/// Returns how many queries hit each kind of station.
std::vector<std::size_t> expect_interleaved_match(
    const Graph& g, const std::vector<StationId>& dsts, std::size_t rounds,
    std::uint64_t seed) {
  std::vector<PathTree> oracle;
  for (const StationId dst : dsts) oracle.push_back(shortest_paths(g, dst));
  const auto tables = RoutingTables::build(g);
  std::vector<std::vector<bool>> settled(dsts.size(),
                                         std::vector<bool>(g.size(), false));
  Rng rng(seed);
  std::vector<std::size_t> hits(3, 0);
  std::size_t mismatches = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t d = 0; d < dsts.size(); ++d) {
      const PathTree& t = oracle[d];
      for (const Where kind : {kSettled, kFrontier, kUnreached}) {
        std::vector<StationId> pick;
        for (StationId s = 0; s < g.size(); ++s)
          if (s != dsts[d] && where(g, settled[d], s) == kind)
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
        (void)model_run(tables, t, at, settled[d]);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  std::uint64_t expected = 0;
  for (const auto& marks : settled)
    expected += static_cast<std::uint64_t>(
        std::count(marks.begin(), marks.end(), true));
  EXPECT_EQ(tables.stats().trees, dsts.size());
  EXPECT_EQ(tables.stats().settled, expected);
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

  // Two trees on a path 0-1-...-9, toward either end. Its ten stations are
  // all landmarks, so the bound toward a station is its exact distance
  // (scaled by 1 - 1e-9) and a run settles just the stations between the
  // root and the queried one: the settled count after each query, by hand.
  // Dearer parallel arcs before and after the unit one between 4 and 5 must
  // not enter a cost.
  Graph path(10);
  path.add_edge(4, 5, 2.5, 1.0);
  for (StationId s = 0; s + 1 < 10; ++s) path.add_edge(s, s + 1, 1.0, 1.0);
  path.add_edge(4, 5, 3.5, 1.0);
  const auto tables = RoutingTables::build(path);
  EXPECT_EQ(tables.next_hop(3, 0), 2u);  // settles 0, 1, 2, 3
  EXPECT_EQ(tables.next_hop(6, 9), 7u);  // settles 9, 8, 7, 6
  EXPECT_EQ(tables.stats().settled, 8u);
  EXPECT_EQ(tables.next_hop(1, 0), 0u);  // settled in the first run
  EXPECT_EQ(tables.cost(3, 0), 3.0);     // so is the queried station
  EXPECT_EQ(tables.stats().settled, 8u);
  EXPECT_EQ(tables.cost(5, 9), 4.0);     // settles 5
  EXPECT_EQ(tables.next_hop(8, 9), 9u);  // settled in an earlier run
  EXPECT_EQ(tables.stats().settled, 9u);
  EXPECT_EQ(tables.next_hop(9, 0), 8u);  // settles 4 to 9
  EXPECT_EQ(tables.cost(0, 9), 9.0);     // settles 4 to 0
  EXPECT_EQ(tables.stats().settled, 20u);
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

/// Steers dst's one tree in turns toward stations on two paths, `a` and
/// `b`, each query a step farther out than that path's last: every run
/// re-keys the frontier the other path's run left. Every answer, and every
/// settled station's once the turns end, must equal the oracle's, and each
/// query must settle exactly what model_run says.
void expect_steered_match(const Graph& g, StationId dst,
                          const std::vector<StationId>& a,
                          const std::vector<StationId>& b) {
  const PathTree t = shortest_paths(g, dst);
  const auto tables = RoutingTables::build(g);
  std::vector<bool> settled(g.size(), false);
  std::size_t runs = 0;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    for (const auto* targets : {&a, &b}) {
      if (i >= targets->size()) continue;
      const StationId at = (*targets)[i];
      runs += model_run(tables, t, at, settled).empty() ? 0 : 1;
      EXPECT_EQ(tables.next_hop(at, dst), t.parent[at]) << at;
      EXPECT_EQ(tables.cost(at, dst), t.cost[at]) << at;
      EXPECT_EQ(tables.stats().settled,
                static_cast<std::uint64_t>(
                    std::count(settled.begin(), settled.end(), true)));
    }
  }
  // Most queries find their station unsettled and resume the tree.
  EXPECT_GT(2 * runs, a.size() + b.size());
  EXPECT_LT(std::count(settled.begin(), settled.end(), true), g.size());
  for (StationId at = 0; at < g.size(); ++at) {
    if (!settled[at] || at == dst) continue;
    EXPECT_EQ(tables.next_hop(at, dst), t.parent[at]) << at;
    EXPECT_EQ(tables.cost(at, dst), t.cost[at]) << at;
  }
  EXPECT_EQ(tables.stats().trees, 1u);
}

TEST(LazyRouting, OneTreeSteeredInTurnsTowardFarApartStations) {
  // The lattice's centre tree, asked about the diagonals toward two
  // opposite corners in turns.
  std::vector<StationId> down;
  std::vector<StationId> up;
  for (StationId k = 1; k <= 14; ++k) {
    down.push_back((14 - k) * 30 + (15 - k));
    up.push_back((14 + k) * 30 + (15 + k));
  }
  expect_steered_match(tie_lattice(), 435, down, up);

  // A tab_sec8 cell: the paths from dst to the station farthest from it and
  // to the station farthest from that one, walked outward in turns.
  const Graph cell = section8_graph(1000, 5000.0, runner::trial_seed(707, 0));
  const StationId dst = 0;
  const PathTree from_dst = shortest_paths(cell, dst);
  const auto farthest = [&](const PathTree& t) {
    StationId best = t.source;
    for (StationId s = 0; s < cell.size(); ++s)
      if (std::isfinite(t.cost[s]) && t.cost[s] > t.cost[best]) best = s;
    return best;
  };
  const StationId p = farthest(from_dst);
  const StationId q = farthest(shortest_paths(cell, p));
  auto outward = [&](StationId end) {
    std::vector<StationId> path = extract_path(from_dst, end);
    path.erase(path.begin());  // dst itself
    return path;
  };
  ASSERT_GT(outward(p).size(), 5u);
  ASSERT_GT(outward(q).size(), 5u);
  expect_steered_match(cell, dst, outward(p), outward(q));
}

TEST(LazyRouting, TieRuleDecidesLatticeParents) {
  // A* settles the lattice in another order than shortest_paths does. For
  // the stations whose equal-cost predecessors settle, under A*, in another
  // order than their (cost, id) order, keeping the first relaxation that
  // reaches the final cost (a plain strict `<`, shortest_paths' own rule)
  // would pick a different parent; the (cost, id) tie rule picks
  // shortest_paths' parent. Trees at a corner, the centre and the opposite
  // corner, resumed toward random stations in turns.
  const Graph g = tie_lattice();
  const auto tables = RoutingTables::build(g);
  Rng rng(29);
  std::size_t differing = 0;
  for (const StationId dst : {StationId{0}, StationId{435}, StationId{899}}) {
    const PathTree t = shortest_paths(g, dst);
    std::vector<bool> settled(g.size(), false);
    std::vector<std::size_t> pop_index(g.size(), 0);
    std::size_t pops = 0;
    for (int query = 0; query < 12; ++query) {
      const auto at = static_cast<StationId>(rng.uniform_index(g.size()));
      if (at == dst) continue;
      for (const StationId s : model_run(tables, t, at, settled))
        pop_index[s] = pops++;
      EXPECT_EQ(tables.next_hop(at, dst), t.parent[at]);
    }
    for (StationId v = 0; v < g.size(); ++v) {
      if (!settled[v] || v == dst) continue;
      StationId first_popped = kNoStation;
      for (const Edge& e : g.edges(v)) {
        if (t.cost[e.to] + e.cost != t.cost[v]) continue;  // not a tie
        ASSERT_TRUE(settled[e.to]);  // every one settles before v
        if (first_popped == kNoStation ||
            pop_index[e.to] < pop_index[first_popped])
          first_popped = e.to;
      }
      if (first_popped != t.parent[v]) {
        ++differing;
        EXPECT_EQ(tables.next_hop(v, dst), t.parent[v]);
      }
    }
  }
  EXPECT_GT(differing, 0u);
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
