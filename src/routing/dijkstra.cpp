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
        slot_(graph.size(), kNotQueued),
        cost_(graph.size(), kInf) {
    DRN_EXPECTS(graph.size() < kSettled);  // a parent word's top bit is free
    for (StationId s = 0; s < graph.size(); ++s) {
      for (const Edge& e : graph.edges(s)) arcs_.push_back({e.to, e.cost});
      first_[s + 1] = arcs_.size();
    }
    touched_.reserve(graph.size());  // a run sets each entry once at most
  }

  [[nodiscard]] std::size_t size() const { return trees_.size(); }

  StationId next_hop(StationId at, StationId dst) {
    DRN_EXPECTS(at < size() && dst < size());
    if (at == dst) return kNoStation;
    const StationId parent = final_entry(at, dst).parent[at] & ~kSettled;
    return parent == kUnreached ? kNoStation : parent;
  }

  /// The arc costs along the parent chain, summed from `dst` outward: the
  /// very additions the relaxations made, so the sum is the cost Dijkstra
  /// reached bit for bit.
  double cost(StationId at, StationId dst) {
    DRN_EXPECTS(at < size() && dst < size());
    if (at == dst) return 0.0;
    const Tree& t = final_entry(at, dst);
    if ((t.parent[at] & ~kSettled) == kUnreached) return kInf;
    std::vector<StationId> chain;
    for (StationId s = at; s != dst; s = t.parent[s] & ~kSettled)
      chain.push_back(s);
    double sum = 0.0;
    StationId from = dst;
    for (auto it = chain.rbegin(); it != chain.rend(); from = *it++) {
      // A relaxation along parallel arcs keeps the cheapest.
      double arc = kInf;
      for (std::size_t i = first_[from]; i < first_[from + 1]; ++i)
        if (arcs_[i].to == *it) arc = std::min(arc, arcs_[i].cost);
      sum += arc;
    }
    return sum;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = first_.capacity() * sizeof(std::size_t) +
                        arcs_.capacity() * sizeof(Arc) +
                        trees_.capacity() * sizeof(std::unique_ptr<Tree>) +
                        slot_.capacity() * sizeof(std::uint32_t) +
                        cost_.capacity() * sizeof(double) +
                        touched_.capacity() * sizeof(StationId);
    for (const auto& t : trees_) {
      if (!t) continue;
      bytes += sizeof(Tree) + t->parent.capacity() * sizeof(StationId) +
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
  // A tree's word for a station: its parent, with the top bit set once the
  // station is settled; kUnreached (the root's parent too) until reached.
  static constexpr StationId kSettled = StationId{1} << 31;
  static constexpr StationId kUnreached = kSettled - 1;

  /// Dijkstra rooted at one destination, paused between queries. `frontier`
  /// is a 4-ary min-heap with one (cost, station) item per reached,
  /// unsettled station; a relaxation lowers the station's item in place
  /// (decrease-key) instead of pushing a second one. Items are distinct, so
  /// the heap pops exactly the item shortest_paths' heap pops next that is
  /// not stale: the stations settle in the same order with the same costs
  /// and parents, and every pause point is the same. Only the frontier
  /// keeps costs between runs; the parent words are the whole tree. The
  /// frontier is freed when the tree completes.
  struct Tree {
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
      tree->parent.assign(size(), kUnreached);
      tree->frontier.emplace_back(0.0, dst);
      ++stats_.trees;
    }
    Tree& t = *tree;
    if ((t.parent[at] & kSettled) != 0 || t.frontier.empty()) return t;
    // Only the running tree needs costs and heap positions: load its
    // frontier into the shared cost_ and slot_ arrays for the run, and clear
    // every entry the run set at the pause. That costs O(frontier + the
    // run's reach) per resume instead of an O(M) cost array per tree.
    for (std::size_t i = 0; i < t.frontier.size(); ++i) {
      const auto [cost, s] = t.frontier[i];
      slot_[s] = static_cast<std::uint32_t>(i);
      cost_[s] = cost;
      touched_.push_back(s);
    }
    while (!t.frontier.empty() && t.frontier.front().first < cost_[at])
      step(t);
    for (const HeapItem& item : t.frontier) slot_[item.second] = kNotQueued;
    for (const StationId s : touched_) cost_[s] = kInf;
    touched_.clear();
    return t;
  }

  /// One settling pop of shortest_paths' loop.
  void step(Tree& t) {
    const auto [cost, at] = t.frontier.front();
    slot_[at] = kNotQueued;
    t.parent[at] |= kSettled;
    const HeapItem last = t.frontier.back();
    t.frontier.pop_back();
    if (!t.frontier.empty()) sift_down(t, last);
    ++stats_.settled;
    // Locals: the compiler would reload these members on every relaxation,
    // as the rare branch below stores through pointers.
    const Arc* const end = arcs_.data() + first_[at + 1];
    double* const known_cost = cost_.data();
    for (const Arc* e = arcs_.data() + first_[at]; e != end; ++e) {
      const double candidate = cost + e->cost;
      double& known = known_cost[e->to];
      if (candidate < known) {
        // Not reached in this run. Settled in an earlier one: it reads
        // -inf for the rest of the run, so later relaxations fail at the
        // first compare, as they would against its final cost. Otherwise
        // it is reached for the first time.
        if (known == kInf) {
          touched_.push_back(e->to);
          if ((t.parent[e->to] & kSettled) != 0) {
            known = -kInf;
            continue;
          }
        }
        known = candidate;
        t.parent[e->to] = at;
        std::uint32_t pos = slot_[e->to];
        if (pos == kNotQueued) {
          pos = static_cast<std::uint32_t>(t.frontier.size());
          t.frontier.emplace_back();
        }
        sift_up(t, pos, HeapItem{candidate, e->to});
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
  // The tree being run: each station's heap position in its frontier
  // (kNotQueued otherwise), and its cost if reached in this run (its final
  // cost once settled in it, -inf if it was settled in an earlier run,
  // +inf otherwise). All kNotQueued and +inf between runs.
  std::vector<std::uint32_t> slot_;
  std::vector<double> cost_;
  std::vector<StationId> touched_;  // stations whose cost_ the run set
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
