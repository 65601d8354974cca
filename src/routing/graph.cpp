#include "routing/graph.hpp"

#include <vector>

#include "common/expects.hpp"
#include "common/parallel.hpp"

namespace drn::routing {

Graph::Graph(std::size_t size) : adjacency_(size) { DRN_EXPECTS(size > 0); }

Graph Graph::build(const radio::PropagationMatrix& gains, double min_gain,
                   bool unit_cost) {
  DRN_EXPECTS(min_gain > 0.0);
  const std::size_t m = gains.size();
  // The O(M²) pair scan runs in parallel row blocks; edges are added in one
  // serial pass in (i, j) order, which fixes adjacency (and so Dijkstra's
  // tie) order.
  std::vector<std::vector<StationId>> usable(m);
  parallel_row_blocks(m, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const double* row = gains.row(static_cast<StationId>(i));
      for (std::size_t j = i + 1; j < m; ++j) {
        if (row[j] < min_gain) continue;
        usable[i].push_back(static_cast<StationId>(j));
      }
    }
  });
  Graph g(m);
  for (StationId i = 0; i < m; ++i) {
    for (StationId j : usable[i]) {
      const double gain = gains.gain(i, j);
      g.add_edge(i, j, unit_cost ? 1.0 : 1.0 / gain, gain);
    }
  }
  return g;
}

Graph Graph::min_energy(const radio::PropagationMatrix& gains,
                        double min_gain) {
  return build(gains, min_gain, /*unit_cost=*/false);
}

Graph Graph::min_hop(const radio::PropagationMatrix& gains, double min_gain) {
  return build(gains, min_gain, /*unit_cost=*/true);
}

void Graph::add_edge(StationId a, StationId b, double cost, double gain) {
  DRN_EXPECTS(a < size() && b < size() && a != b);
  DRN_EXPECTS(cost > 0.0);
  DRN_EXPECTS(gain > 0.0);
  adjacency_[a].push_back(Edge{b, cost, gain});
  adjacency_[b].push_back(Edge{a, cost, gain});
  ++edge_count_;
}

std::span<const Edge> Graph::edges(StationId station) const {
  DRN_EXPECTS(station < size());
  return adjacency_[station];
}

bool Graph::connected() const {
  std::vector<bool> seen(size(), false);
  std::vector<StationId> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const StationId at = stack.back();
    stack.pop_back();
    for (const Edge& e : adjacency_[at]) {
      if (seen[e.to]) continue;
      seen[e.to] = true;
      ++visited;
      stack.push_back(e.to);
    }
  }
  return visited == size();
}

std::vector<std::size_t> Graph::degrees() const {
  std::vector<std::size_t> out(size());
  for (std::size_t i = 0; i < size(); ++i) out[i] = adjacency_[i].size();
  return out;
}

}  // namespace drn::routing
