// Centralized min-cost paths (Dijkstra) and the next-hop tables built from
// them. The distributed computation the paper actually proposes is in
// routing/bellman_ford.hpp; Dijkstra serves as the reference oracle the
// distributed algorithm must agree with (tested), and its goal-directed A*
// form as the fast way to route large simulations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "routing/graph.hpp"

namespace drn::routing {

/// Single-source shortest-path tree.
struct PathTree {
  StationId source = kNoStation;
  std::vector<double> cost;       // infinity if unreachable
  std::vector<StationId> parent;  // kNoStation at source / unreachable
};

/// Dijkstra from `source` over non-negative edge costs.
[[nodiscard]] PathTree shortest_paths(const Graph& graph, StationId source);

/// The station sequence from `tree.source` to `destination` (inclusive);
/// empty if unreachable.
[[nodiscard]] std::vector<StationId> extract_path(const PathTree& tree,
                                                  StationId destination);

/// Next-hop routing: next_hop(at, dst) is the neighbour `at` forwards to for
/// destination `dst`. With symmetric costs (an undirected graph) that is the
/// parent of `at` in the shortest-path tree rooted at `dst`.
///
/// The trees are computed lazily, one per destination on its first query,
/// and only as far as the queries need: a destination's A* search, steered
/// toward the queried station by landmark lower bounds, pauses as soon as
/// that station settles and resumes toward the next one queried. Every
/// settled entry is final, and equal costs go to the predecessor
/// shortest_paths settles first, so every answer equals the one
/// shortest_paths(graph, dst) gives, bit for bit. A query between two
/// components builds no tree. Memory is O(M + E) up front, 16 landmark
/// costs and a component label per station and a reverse index per arc
/// from the first query on, plus one 4-byte word per station per
/// destination queried (and the frontier of a tree not yet complete), never
/// an M x M table. Copies and router() closures share one set of trees; like
/// the Simulator they serve, they must be used from one thread at a time.
class RoutingTables {
 public:
  /// Captures `graph` (its adjacency, in order); builds no tree yet.
  static RoutingTables build(const Graph& graph);

  /// kNoStation if dst is unreachable from `at` (or at == dst).
  [[nodiscard]] StationId next_hop(StationId at, StationId dst) const;

  /// Total path cost from `at` to `dst` (infinity if unreachable).
  [[nodiscard]] double cost(StationId at, StationId dst) const;

  [[nodiscard]] std::size_t size() const;

  /// The paper's hop-by-hop consistency property (Section 6.2): "a
  /// minimum-energy route from A to C that goes through B will use the same
  /// route from B to C as any other route that goes through B to get to C."
  /// True iff following next_hop pointers from every (at, dst) pair reaches
  /// dst in at most `size` hops with monotonically decreasing cost. Builds
  /// every tree.
  [[nodiscard]] bool prefix_consistent() const;

  /// The lower bound on cost(from, to) that steers the searches toward
  /// `to`: the largest difference between the two stations' costs to one
  /// landmark, scaled by 1 - 1e-9. 0 if `to` lies outside the landmarks'
  /// component, infinity across components. Builds the landmarks on first
  /// use, as a query does.
  [[nodiscard]] double lower_bound(StationId from, StationId to) const;

  /// A Simulator-compatible router closure. It shares these tables' trees
  /// (no copy), and keeps them alive after this object is gone.
  [[nodiscard]] std::function<StationId(StationId, StationId)> router() const;

  /// Work done so far; deterministic in the sequence of queries.
  struct Stats {
    std::uint64_t trees = 0;    // destinations whose search has started
    std::uint64_t settled = 0;  // stations settled, summed over the trees
  };
  [[nodiscard]] Stats stats() const;

  /// Bytes held: the captured adjacency, what the first query builds (the
  /// landmark costs, component labels and reverse arcs), the shared run
  /// scratch, and every tree started so far.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  class Lazy;
  explicit RoutingTables(std::shared_ptr<Lazy> lazy);

  std::shared_ptr<Lazy> lazy_;
};

}  // namespace drn::routing
