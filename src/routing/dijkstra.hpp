// Centralized min-cost paths (Dijkstra) and the next-hop tables built from
// them. The distributed computation the paper actually proposes is in
// routing/bellman_ford.hpp; Dijkstra serves as the reference oracle the
// distributed algorithm must agree with (tested), and as the fast way to
// route large simulations.
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
/// and only as far as the queries need: a destination's Dijkstra pauses as
/// soon as the queried station's entry is final and resumes for a later
/// query further out. Pausing does not change the computation, so every
/// answer equals the one shortest_paths(graph, dst) gives, bit for bit.
/// Memory is O(M + E) up front plus one 4-byte word per station per
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

  /// A Simulator-compatible router closure. It shares these tables' trees
  /// (no copy), and keeps them alive after this object is gone.
  [[nodiscard]] std::function<StationId(StationId, StationId)> router() const;

  /// Work done so far; deterministic in the sequence of queries.
  struct Stats {
    std::uint64_t trees = 0;    // destinations whose Dijkstra has started
    std::uint64_t settled = 0;  // stations settled, summed over the trees
  };
  [[nodiscard]] Stats stats() const;

  /// Bytes held: the captured adjacency plus every tree started so far.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  class Lazy;
  explicit RoutingTables(std::shared_ptr<Lazy> lazy);

  std::shared_ptr<Lazy> lazy_;
};

}  // namespace drn::routing
