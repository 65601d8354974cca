#include "routing/dijkstra.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "common/expects.hpp"

namespace drn::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

using HeapItem = std::pair<double, StationId>;  // (cost, station)
}  // namespace

PathTree shortest_paths(const Graph& graph, StationId source) {
  DRN_EXPECTS(source < graph.size());
  PathTree tree;
  tree.source = source;
  tree.cost.assign(graph.size(), kInf);
  tree.parent.assign(graph.size(), kNoStation);
  tree.cost[source] = 0.0;

  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [cost, at] = heap.top();
    heap.pop();
    if (cost > tree.cost[at]) continue;  // stale entry
    for (const Edge& e : graph.edges(at)) {
      const double candidate = cost + e.cost;
      if (candidate < tree.cost[e.to]) {
        tree.cost[e.to] = candidate;
        tree.parent[e.to] = at;
        heap.emplace(candidate, e.to);
      }
    }
  }
  return tree;
}

std::vector<StationId> extract_path(const PathTree& tree,
                                    StationId destination) {
  DRN_EXPECTS(destination < tree.cost.size());
  if (tree.cost[destination] == kInf) return {};
  std::vector<StationId> path;
  for (StationId at = destination; at != kNoStation; at = tree.parent[at])
    path.push_back(at);
  std::reverse(path.begin(), path.end());
  DRN_ENSURES(path.front() == tree.source);
  return path;
}

/// The graph's adjacency in compressed rows, plus one paused Dijkstra per
/// destination queried so far.
class RoutingTables::Lazy {
 public:
  explicit Lazy(const Graph& graph)
      : first_(graph.size() + 1),
        trees_(graph.size()),
        slot_(graph.size(), kNotQueued) {
    for (StationId s = 0; s < graph.size(); ++s) {
      for (const Edge& e : graph.edges(s)) arcs_.push_back({e.to, e.cost});
      first_[s + 1] = arcs_.size();
    }
  }

  [[nodiscard]] std::size_t size() const { return trees_.size(); }

  StationId next_hop(StationId at, StationId dst) {
    DRN_EXPECTS(at < size() && dst < size());
    if (at == dst) return kNoStation;
    return final_entry(at, dst).parent[at];
  }

  double cost(StationId at, StationId dst) {
    DRN_EXPECTS(at < size() && dst < size());
    if (at == dst) return 0.0;
    return final_entry(at, dst).cost[at];
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = first_.capacity() * sizeof(std::size_t) +
                        arcs_.capacity() * sizeof(Arc) +
                        trees_.capacity() * sizeof(std::unique_ptr<Tree>) +
                        slot_.capacity() * sizeof(std::uint32_t);
    for (const auto& t : trees_) {
      if (!t) continue;
      bytes += sizeof(Tree) + t->cost.capacity() * sizeof(double) +
               t->parent.capacity() * sizeof(StationId) +
               t->frontier.capacity() * sizeof(HeapItem);
    }
    return bytes;
  }

 private:
  struct Arc {
    StationId to;
    double cost;
  };

  static constexpr std::uint32_t kNotQueued = ~std::uint32_t{0};

  /// Dijkstra rooted at one destination, paused between queries. `frontier`
  /// is a 4-ary min-heap with one (cost, station) item per reached,
  /// unsettled station; a relaxation lowers the station's item in place
  /// (decrease-key) instead of pushing a second one. Items are distinct, so
  /// the heap pops exactly the item shortest_paths' heap pops next that is
  /// not stale: the stations settle in the same order with the same costs
  /// and parents, and every pause point is the same. Freed when the tree
  /// completes.
  struct Tree {
    std::vector<double> cost;
    std::vector<StationId> parent;
    std::vector<HeapItem> frontier;
  };

  /// dst's tree, advanced until the entry of `at` can no longer change: no
  /// later step relaxes below the frontier's minimum, so an entry at or
  /// below it is final (and one never reached once the frontier is empty
  /// stays unreachable).
  const Tree& final_entry(StationId at, StationId dst) {
    std::unique_ptr<Tree>& tree = trees_[dst];
    if (!tree) {
      tree = std::make_unique<Tree>();
      tree->cost.assign(size(), kInf);
      tree->parent.assign(size(), kNoStation);
      tree->cost[dst] = 0.0;
      tree->frontier.emplace_back(0.0, dst);
      ++stats_.trees;
    }
    Tree& t = *tree;
    const auto pending = [&] {
      return !t.frontier.empty() && t.frontier.front().first < t.cost[at];
    };
    if (!pending()) return t;
    // Only the running tree needs heap positions: index its frontier into
    // the shared slot_ array for the run, and clear it again at the pause.
    // That costs O(frontier) per resume instead of O(M) per paused tree.
    for (std::size_t i = 0; i < t.frontier.size(); ++i)
      slot_[t.frontier[i].second] = static_cast<std::uint32_t>(i);
    do {
      step(t);
    } while (pending());
    for (const HeapItem& item : t.frontier) slot_[item.second] = kNotQueued;
    return t;
  }

  /// One settling pop of shortest_paths' loop.
  void step(Tree& t) {
    const auto [cost, at] = t.frontier.front();
    slot_[at] = kNotQueued;
    const HeapItem last = t.frontier.back();
    t.frontier.pop_back();
    if (!t.frontier.empty()) sift_down(t, last);
    ++stats_.settled;
    for (std::size_t i = first_[at]; i < first_[at + 1]; ++i) {
      const Arc& e = arcs_[i];
      const double candidate = cost + e.cost;
      if (candidate < t.cost[e.to]) {
        t.cost[e.to] = candidate;
        t.parent[e.to] = at;
        std::uint32_t pos = slot_[e.to];
        if (pos == kNotQueued) {
          pos = static_cast<std::uint32_t>(t.frontier.size());
          t.frontier.emplace_back();
        }
        sift_up(t, pos, HeapItem{candidate, e.to});
      }
    }
    if (t.frontier.empty()) t.frontier = {};  // tree complete
  }

  /// Places `item` at heap position `pos` (a hole) and moves it up.
  void sift_up(Tree& t, std::uint32_t pos, HeapItem item) {
    while (pos > 0) {
      const std::uint32_t up = (pos - 1) / 4;
      if (!(item < t.frontier[up])) break;
      place(t, pos, t.frontier[up]);
      pos = up;
    }
    place(t, pos, item);
  }

  /// Places `item` at the root (a hole) and moves it down.
  void sift_down(Tree& t, HeapItem item) {
    const std::size_t n = t.frontier.size();
    std::size_t pos = 0;
    for (;;) {
      const std::size_t first = 4 * pos + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c)
        if (t.frontier[c] < t.frontier[best]) best = c;
      if (!(t.frontier[best] < item)) break;
      place(t, pos, t.frontier[best]);
      pos = best;
    }
    place(t, pos, item);
  }

  void place(Tree& t, std::size_t pos, HeapItem item) {
    t.frontier[pos] = item;
    slot_[item.second] = static_cast<std::uint32_t>(pos);
  }

  std::vector<std::size_t> first_;  // arcs of s: [first_[s], first_[s + 1])
  std::vector<Arc> arcs_;
  std::vector<std::unique_ptr<Tree>> trees_;  // by destination
  // Heap position of each station in the frontier of the tree being run,
  // kNotQueued otherwise (all of it between runs).
  std::vector<std::uint32_t> slot_;
  Stats stats_;
};

RoutingTables::RoutingTables(std::shared_ptr<Lazy> lazy)
    : lazy_(std::move(lazy)) {}

RoutingTables RoutingTables::build(const Graph& graph) {
  return RoutingTables(std::make_shared<Lazy>(graph));
}

StationId RoutingTables::next_hop(StationId at, StationId dst) const {
  return lazy_->next_hop(at, dst);
}

double RoutingTables::cost(StationId at, StationId dst) const {
  return lazy_->cost(at, dst);
}

std::size_t RoutingTables::size() const { return lazy_->size(); }

RoutingTables::Stats RoutingTables::stats() const { return lazy_->stats(); }

std::size_t RoutingTables::memory_bytes() const {
  return lazy_->memory_bytes();
}

bool RoutingTables::prefix_consistent() const {
  const std::size_t n = size();
  for (StationId at = 0; at < n; ++at) {
    for (StationId dst = 0; dst < n; ++dst) {
      if (at == dst || cost(at, dst) == kInf) continue;
      StationId hop = at;
      double last_cost = cost(at, dst);
      for (std::size_t steps = 0; hop != dst; ++steps) {
        if (steps > n) return false;  // loop
        hop = next_hop(hop, dst);
        if (hop == kNoStation) return false;
        const double c = cost(hop, dst);
        if (hop != dst && c >= last_cost) return false;
        last_cost = c;
      }
    }
  }
  return true;
}

std::function<StationId(StationId, StationId)> RoutingTables::router() const {
  return [lazy = lazy_](StationId at, StationId dst) {
    return lazy->next_hop(at, dst);
  };
}

}  // namespace drn::routing
