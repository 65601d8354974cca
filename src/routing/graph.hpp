// The routing graph derived from the propagation matrix (Section 6.2).
//
// "A criterion for selecting routes that is directly determinable from the
// propagation matrix would be particularly convenient... the costs are the
// reciprocal of the path gains. (The reciprocal of the path gain is
// proportional to the power that would be used with power control.)"
//
// An edge exists between stations whose mutual gain clears a usability
// threshold (i.e. the hop is reachable within the power budget); its cost is
// 1/gain — the transmit energy per unit delivered power. Minimising the sum
// of 1/gain along a path is exactly minimum-energy routing.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "radio/propagation_matrix.hpp"

namespace drn::routing {

struct Edge {
  StationId to = kNoStation;
  double cost = 0.0;  // 1/gain for min-energy, 1 for min-hop
  double gain = 0.0;
};

class Graph {
 public:
  /// Min-energy graph over `neighbors` — each station's neighbour ids in
  /// ascending order, symmetric (the scheduled network's lists, or
  /// PropagationMatrix::neighbors_at_least) — with cost = 1/gain.
  static Graph min_energy(const std::vector<std::vector<StationId>>& neighbors,
                          const radio::PropagationMatrix& gains);

  /// Min-energy graph: edge iff gain >= min_gain, cost = 1/gain.
  static Graph min_energy(const radio::PropagationMatrix& gains,
                          double min_gain);

  /// Min-hop graph over the same edges, unit costs (ablation A3 comparator).
  static Graph min_hop(const radio::PropagationMatrix& gains, double min_gain);

  /// Empty graph over `size` stations; edges added with add_edge.
  explicit Graph(std::size_t size);

  /// Adds an undirected edge (both directions, same cost/gain).
  void add_edge(StationId a, StationId b, double cost, double gain);

  [[nodiscard]] std::size_t size() const { return adjacency_.size(); }
  [[nodiscard]] std::span<const Edge> edges(StationId station) const;

  /// Number of undirected edges.
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  /// True iff every station can reach every other.
  [[nodiscard]] bool connected() const;

  /// Degree (direct-neighbour count) of each station; Section 5 observes the
  /// routing-neighbour count stays small ("never exceeded eight").
  [[nodiscard]] std::vector<std::size_t> degrees() const;

 private:
  /// Edges added in (i, j) order for i < j, which fixes adjacency (and so
  /// Dijkstra's tie) order: each station's edges in ascending neighbour id.
  Graph(const std::vector<std::vector<StationId>>& neighbors,
        const radio::PropagationMatrix& gains, bool unit_cost);

  std::vector<std::vector<Edge>> adjacency_;
  std::size_t edge_count_ = 0;
};

}  // namespace drn::routing
