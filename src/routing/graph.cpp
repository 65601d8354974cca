#include "routing/graph.hpp"

#include <vector>

#include "common/expects.hpp"

namespace drn::routing {

Graph::Graph(std::size_t size) : adjacency_(size) { DRN_EXPECTS(size > 0); }

Graph::Graph(const std::vector<std::vector<StationId>>& neighbors,
             const radio::PropagationMatrix& gains, bool unit_cost)
    : Graph(gains.size()) {
  DRN_EXPECTS(neighbors.size() == size());
  std::size_t listed = 0;
  for (StationId i = 0; i < size(); ++i) {
    listed += neighbors[i].size();
    for (const StationId j : neighbors[i]) {
      if (j <= i) continue;  // the edge comes from the lower id's list
      const double gain = gains.gain(i, j);
      add_edge(i, j, unit_cost ? 1.0 : 1.0 / gain, gain);
    }
  }
  DRN_EXPECTS(listed == 2 * edge_count_);  // symmetric lists
}

Graph Graph::min_energy(const std::vector<std::vector<StationId>>& neighbors,
                        const radio::PropagationMatrix& gains) {
  return Graph(neighbors, gains, /*unit_cost=*/false);
}

Graph Graph::min_energy(const radio::PropagationMatrix& gains,
                        double min_gain) {
  return Graph(gains.neighbors_at_least(min_gain), gains, /*unit_cost=*/false);
}

Graph Graph::min_hop(const radio::PropagationMatrix& gains, double min_gain) {
  return Graph(gains.neighbors_at_least(min_gain), gains, /*unit_cost=*/true);
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
