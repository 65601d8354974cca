#include "routing/dijkstra.hpp"

#include <algorithm>
#include <array>
#include <cmath>
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

/// The graph's adjacency in compressed rows, plus one paused A* search per
/// destination queried so far, steered toward each queried station by
/// landmark bounds (ALT: A*, landmarks and the triangle inequality).
class RoutingTables::Lazy {
 public:
  explicit Lazy(const Graph& graph)
      : first_(graph.size() + 1),
        trees_(graph.size()),
        slot_(graph.size(), kNotQueued),
        cost_(graph.size(), kInf) {
    for (StationId s = 0; s < graph.size(); ++s) {
      for (const Edge& e : graph.edges(s)) arcs_.push_back({e.to, e.cost});
      first_[s + 1] = arcs_.size();
    }
    DRN_EXPECTS(arcs_.size() < kUnreached);  // a tree word's top bit is free
    touched_.reserve(graph.size());  // a run sets each entry once at most
  }

  [[nodiscard]] std::size_t size() const { return trees_.size(); }

  StationId next_hop(StationId at, StationId dst) {
    DRN_EXPECTS(at < size() && dst < size());
    if (at == dst) return kNoStation;
    const Tree* t = final_entry(at, dst);
    return t == nullptr ? kNoStation : parent(*t, at);
  }

  double cost(StationId at, StationId dst) {
    DRN_EXPECTS(at < size() && dst < size());
    if (at == dst) return 0.0;
    const Tree* t = final_entry(at, dst);
    if (t == nullptr) return kInf;
    start_run(dst);
    const double g = chain_cost(*t, at);
    end_run();
    return g;
  }

  double lower_bound(StationId from, StationId to) {
    DRN_EXPECTS(from < size() && to < size());
    if (component_.empty()) build_first_query_state();
    if (component_[from] != component_[to]) return kInf;
    return bound(from, landmark_row(to));
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = first_.capacity() * sizeof(std::size_t) +
                        arcs_.capacity() * sizeof(Arc) +
                        trees_.capacity() * sizeof(std::unique_ptr<Tree>) +
                        component_.capacity() * sizeof(std::uint32_t) +
                        landmark_cost_.capacity() * sizeof(double) +
                        reverse_.capacity() * sizeof(std::uint32_t) +
                        slot_.capacity() * sizeof(std::uint32_t) +
                        cost_.capacity() * sizeof(double) +
                        touched_.capacity() * sizeof(StationId) +
                        heap_.capacity() * sizeof(FrontierItem) +
                        chain_.capacity() * sizeof(StationId);
    for (const auto& t : trees_) {
      if (!t) continue;
      bytes += sizeof(Tree) + t->up.capacity() * sizeof(std::uint32_t) +
               t->frontier.capacity() * sizeof(StationId);
    }
    return bytes;
  }

 private:
  struct Arc {
    StationId to;
    double cost;
  };

  /// A frontier item of the running search: f = g + the bound toward the
  /// queried station. Items pop in (f, g, station) order.
  struct FrontierItem {
    double f;
    double g;
    StationId station;

    friend bool operator<(const FrontierItem& a, const FrontierItem& b) {
      if (a.f != b.f) return a.f < b.f;
      if (a.g != b.g) return a.g < b.g;
      return a.station < b.station;
    }
  };

  static constexpr std::uint32_t kNotQueued = ~std::uint32_t{0};
  // A tree's word for a station: the index in arcs_ of its arc to its
  // parent, with the top bit set once the station is settled; kUnreached
  // (the root's word too) until reached.
  static constexpr std::uint32_t kSettled = std::uint32_t{1} << 31;
  static constexpr std::uint32_t kUnreached = kSettled - 1;
  static constexpr std::size_t kLandmarks = 16;
  // The bound is scaled by this to keep it consistent (never above an arc's
  // cost plus the bound at the arc's far end) despite the rounding in the
  // landmark costs and in f.
  static constexpr double kBoundScale = 1.0 - 1e-9;

  /// A* rooted at one destination, paused between queries. `up` is the
  /// whole tree, one word per station; `frontier` lists the reached,
  /// unsettled stations, which keep no cost between runs: a run recomputes
  /// each one's cost from its parent chain (chain_cost) and its bound toward
  /// the run's target. The frontier is freed when the tree completes.
  struct Tree {
    std::vector<std::uint32_t> up;
    std::vector<StationId> frontier;
  };

  static bool settled(std::uint32_t word) { return (word & kSettled) != 0; }

  /// The arc from station `s`, reached and not the root, to its parent.
  [[nodiscard]] const Arc& arc_up(const Tree& t, StationId s) const {
    return arcs_[t.up[s] & ~kSettled];
  }
  [[nodiscard]] StationId parent(const Tree& t, StationId s) const {
    return arc_up(t, s).to;
  }

  /// dst's tree with `at` settled, or nullptr if `at` cannot reach dst. A
  /// run settles stations until `at` pops. With a consistent bound, every
  /// station pops with its final cost, and after every predecessor whose
  /// relaxation reaches that cost (it pops first: lower f, or equal f and
  /// lower g). So each settled entry is final whatever the run's target
  /// was, and later runs toward other stations keep it.
  const Tree* final_entry(StationId at, StationId dst) {
    if (component_.empty()) build_first_query_state();
    if (component_[at] != component_[dst]) return nullptr;
    std::unique_ptr<Tree>& tree = trees_[dst];
    if (!tree) {
      tree = std::make_unique<Tree>();
      tree->up.assign(size(), kUnreached);
      tree->frontier.push_back(dst);
      ++stats_.trees;
    }
    Tree& t = *tree;
    if (!settled(t.up[at])) run(t, at, dst);
    return &t;
  }

  /// Loads dst's frontier into the shared scratch keyed toward `at`,
  /// settles until `at` pops, and stores the frontier's stations back.
  void run(Tree& t, StationId at, StationId dst) {
    target_ = landmark_row(at);
    start_run(dst);
    for (const StationId s : t.frontier) {
      const double g = chain_cost(t, s);
      slot_[s] = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back({g + bound(s, target_), g, s});
    }
    if (heap_.size() > 1) {
      for (std::size_t pos = (heap_.size() - 2) / 4 + 1; pos-- > 0;)
        sift_down(pos, heap_[pos]);
    }
    while (!settled(t.up[at])) step(t);
    std::vector<StationId> frontier(heap_.size());  // exactly sized
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      frontier[i] = heap_[i].station;
      slot_[heap_[i].station] = kNotQueued;
    }
    t.frontier = std::move(frontier);
    heap_.clear();
    end_run();
  }

  /// Marks dst's cost (0) in the scratch: the end of every parent chain.
  void start_run(StationId dst) {
    cost_[dst] = 0.0;
    touched_.push_back(dst);
  }

  void end_run() {
    for (const StationId s : touched_) cost_[s] = kInf;
    touched_.clear();
  }

  /// The cost of `s` in the running tree: the costs of the arcs up its
  /// parent chain, summed outward from the first station whose cost the run
  /// knows (dst at worst). An arc up costs what the relaxation's arc down
  /// cost, so these are the very additions the relaxations made, and the
  /// sum is the cost the search reached, bit for bit. Each station on the
  /// chain keeps its cost in cost_ for the rest of the run.
  double chain_cost(const Tree& t, StationId s) {
    chain_.clear();
    for (; !std::isfinite(cost_[s]); s = parent(t, s)) chain_.push_back(s);
    double sum = cost_[s];
    for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
      sum += arc_up(t, *it).cost;
      if (cost_[*it] == kInf) touched_.push_back(*it);
      cost_[*it] = sum;
    }
    return sum;
  }

  /// `target`'s landmark costs, or nullptr outside the landmarks'
  /// component.
  [[nodiscard]] const double* landmark_row(StationId target) const {
    return component_[target] == landmark_component_
               ? landmark_cost_.data() + target * kLandmarks
               : nullptr;
  }

  /// A lower bound on the cost from `s` to the station whose landmark row
  /// is `target` (0 without one): by the triangle inequality, no landmark's
  /// costs to the two differ by more.
  [[nodiscard]] double bound(StationId s, const double* target) const {
    if (target == nullptr) return 0.0;
    const double* const from = landmark_cost_.data() + s * kLandmarks;
    // Four independent maxima, so the compares do not wait on each other.
    std::array<double, 4> h{};
    for (std::size_t l = 0; l < kLandmarks; l += h.size())
      for (std::size_t k = 0; k < h.size(); ++k)
        h[k] = std::max(h[k], std::abs(from[l + k] - target[l + k]));
    return std::max(std::max(h[0], h[1]), std::max(h[2], h[3])) * kBoundScale;
  }

  /// One settling pop. Relaxations follow shortest_paths' with one rule
  /// added for A*'s different settle order: on an equal cost, the
  /// predecessor with the lower (cost, id) wins, which is the one
  /// shortest_paths settles first.
  void step(Tree& t) {
    const FrontierItem top = heap_.front();
    slot_[top.station] = kNotQueued;
    t.up[top.station] |= kSettled;
    const FrontierItem last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    ++stats_.settled;
    const StationId at = top.station;
    const double cost = top.g;
    // Locals: the compiler would reload these members on every relaxation,
    // as the rare branches below store through pointers.
    const Arc* const end = arcs_.data() + first_[at + 1];
    const std::uint32_t* back = reverse_.data() + first_[at];
    double* const known_cost = cost_.data();
    for (const Arc* e = arcs_.data() + first_[at]; e != end; ++e, ++back) {
      const double candidate = cost + e->cost;
      double& known = known_cost[e->to];
      if (candidate < known) {
        if (known == kInf) {
          // Not reached in this run (the frontier was loaded with its
          // costs). Settled in an earlier run: it reads -inf for the rest
          // of the run, so later relaxations fail at the first compare, as
          // they would against its final cost. Otherwise it is reached for
          // the first time.
          touched_.push_back(e->to);
          if (settled(t.up[e->to])) {
            known = -kInf;
            continue;
          }
          slot_[e->to] = static_cast<std::uint32_t>(heap_.size());
          heap_.emplace_back();
        } else {
          // A consistent bound settles every station at its final cost.
          DRN_EXPECTS(!settled(t.up[e->to]));
        }
        known = candidate;
        t.up[e->to] = *back;
        sift_up(slot_[e->to],
                {candidate + bound(e->to, target_), candidate, e->to});
      } else if (candidate == known) {
        // ...and after every predecessor that reaches that cost.
        DRN_EXPECTS(!settled(t.up[e->to]));
        const StationId held = parent(t, e->to);
        if (std::pair(cost, at) < std::pair(chain_cost(t, held), held))
          t.up[e->to] = *back;
      }
    }
  }

  /// Places `item` at heap position `pos` (a hole) and moves it up.
  void sift_up(std::uint32_t pos, FrontierItem item) {
    while (pos > 0) {
      const std::uint32_t up = (pos - 1) / 4;
      if (!(item < heap_[up])) break;
      place(pos, heap_[up]);
      pos = up;
    }
    place(pos, item);
  }

  /// Places `item` at heap position `pos` (a hole) and moves it down.
  void sift_down(std::size_t pos, FrontierItem item) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * pos + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c)
        if (heap_[c] < heap_[best]) best = c;
      if (!(heap_[best] < item)) break;
      place(pos, heap_[best]);
      pos = best;
    }
    place(pos, item);
  }

  void place(std::size_t pos, FrontierItem item) {
    heap_[pos] = item;
    slot_[item.station] = static_cast<std::uint32_t>(pos);
  }

  /// Built on the first query: each arc's reverse, component labels, and
  /// kLandmarks landmarks picked by farthest-point selection in the largest
  /// component, each with its cost to every station of that component.
  void build_first_query_state() {
    const std::size_t n = size();
    // add_edge adds both directions of an edge at once, so the k-th arc
    // from s to u pairs with the k-th arc from u to s, at the same cost.
    reverse_.assign(arcs_.size(), kNoArc);
    for (StationId s = 0; s < n; ++s) {
      for (std::size_t i = first_[s]; i < first_[s + 1]; ++i) {
        if (reverse_[i] != kNoArc) continue;
        std::size_t j = first_[arcs_[i].to];
        while (arcs_[j].to != s || reverse_[j] != kNoArc) ++j;
        reverse_[i] = static_cast<std::uint32_t>(j);
        reverse_[j] = static_cast<std::uint32_t>(i);
      }
    }
    component_.assign(n, kNoComponent);
    std::vector<std::size_t> sizes;
    std::vector<StationId> stack;
    for (StationId s = 0; s < n; ++s) {
      if (component_[s] != kNoComponent) continue;
      const auto label = static_cast<std::uint32_t>(sizes.size());
      sizes.push_back(0);
      component_[s] = label;
      stack.push_back(s);
      while (!stack.empty()) {
        const StationId at = stack.back();
        stack.pop_back();
        ++sizes.back();
        for (std::size_t i = first_[at]; i < first_[at + 1]; ++i) {
          if (component_[arcs_[i].to] != kNoComponent) continue;
          component_[arcs_[i].to] = label;
          stack.push_back(arcs_[i].to);
        }
      }
    }
    landmark_component_ = static_cast<std::uint32_t>(
        std::max_element(sizes.begin(), sizes.end()) - sizes.begin());

    // The first landmark is the station farthest from the component's
    // lowest id; each next one the station farthest from its nearest
    // landmark. Unused columns (a component under kLandmarks stations)
    // stay 0 and bound nothing.
    landmark_cost_.assign(n * kLandmarks, 0.0);
    const auto first = static_cast<StationId>(
        std::find(component_.begin(), component_.end(), landmark_component_) -
        component_.begin());
    std::vector<double> nearest;
    std::vector<double> from;
    costs_from(first, nearest);
    const std::size_t landmarks =
        std::min(kLandmarks, sizes[landmark_component_]);
    for (std::size_t l = 0; l < landmarks; ++l) {
      StationId landmark = first;
      for (StationId s = 0; s < n; ++s)
        if (component_[s] == landmark_component_ &&
            nearest[s] > nearest[landmark])
          landmark = s;
      costs_from(landmark, from);
      for (StationId s = 0; s < n; ++s) {
        if (component_[s] != landmark_component_) continue;
        landmark_cost_[s * kLandmarks + l] = from[s];
        nearest[s] = l == 0 ? from[s] : std::min(nearest[s], from[s]);
      }
    }
  }

  /// Plain Dijkstra costs from `source` (infinity where unreachable).
  void costs_from(StationId source, std::vector<double>& out) const {
    out.assign(size(), kInf);
    out[source] = 0.0;
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    heap.emplace(0.0, source);
    while (!heap.empty()) {
      const auto [cost, at] = heap.top();
      heap.pop();
      if (cost > out[at]) continue;  // stale entry
      for (std::size_t i = first_[at]; i < first_[at + 1]; ++i) {
        const double candidate = cost + arcs_[i].cost;
        if (candidate < out[arcs_[i].to]) {
          out[arcs_[i].to] = candidate;
          heap.emplace(candidate, arcs_[i].to);
        }
      }
    }
  }

  static constexpr std::uint32_t kNoComponent = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoArc = ~std::uint32_t{0};

  std::vector<std::size_t> first_;  // arcs of s: [first_[s], first_[s + 1])
  std::vector<Arc> arcs_;
  std::vector<std::unique_ptr<Tree>> trees_;  // by destination
  // Built on the first query (build_first_query_state).
  std::vector<std::uint32_t> reverse_;    // each arc's reverse, by index
  std::vector<std::uint32_t> component_;  // each station's component label
  std::uint32_t landmark_component_ = kNoComponent;
  std::vector<double> landmark_cost_;  // [s * kLandmarks + l]
  // The run in progress: its target's landmark row (nullptr: no bound),
  // its frontier as a 4-ary min-heap with one item per station, and each
  // station's heap position (kNotQueued otherwise). A station's cost_ is
  // its cost if known in this run (final once settled), -inf if it was
  // settled in an earlier run and its cost is not needed, +inf otherwise.
  // All kNotQueued and +inf between runs.
  const double* target_ = nullptr;
  std::vector<FrontierItem> heap_;
  std::vector<std::uint32_t> slot_;
  std::vector<double> cost_;
  std::vector<StationId> touched_;  // stations whose cost_ the run set
  std::vector<StationId> chain_;    // chain_cost's scratch
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

double RoutingTables::lower_bound(StationId from, StationId to) const {
  return lazy_->lower_bound(from, to);
}

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
