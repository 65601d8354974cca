// Engineering microbenchmarks (google-benchmark) for the hot paths: the
// schedule hash, window search, neighbour lookup, SINR event processing,
// the compensated engine's interference walks, event queue churn, the dense
// setup passes (gain matrix, min-energy graph) and routing (every tree, and a
// trial's lazily built share of them).
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/access.hpp"
#include "core/neighbor_table.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation.hpp"
#include "runner/scenario.hpp"
#include "sim/event_queue.hpp"

namespace {

using drn::StationId;
namespace core = drn::core;
namespace sim = drn::sim;

void BM_ScheduleLookup(benchmark::State& state) {
  const core::Schedule s(1, 0.01, 0.3);
  std::int64_t slot = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.is_receive_slot(slot++));
  }
}
BENCHMARK(BM_ScheduleLookup);

void BM_WindowSearch(benchmark::State& state) {
  const core::Schedule s(2, 0.01, 0.3);
  const core::ClockModel other(123.456, 1.0000123);
  std::vector<core::WindowConstraint> cs = {
      {&s, core::ClockModel(), false, core::Seconds{0.0}},
      {&s, other, true, core::Seconds{0.0002}},
  };
  double earliest = 0.0;
  for (auto _ : state) {
    core::AccessRequest req;
    req.earliest_local = core::Seconds{earliest};
    req.duration = core::Seconds{0.0025};
    req.horizon = core::Seconds{1000.0};
    const auto start = find_transmission_start(req, cs);
    benchmark::DoNotOptimize(start);
    earliest = start->value() + 0.0025;
  }
}
BENCHMARK(BM_WindowSearch);

/// Neighbour lookup by id in a table of N entries: 8 is a static network's
/// table (the schedule path's find_start), 1024 a table grown by beacon
/// re-adoption at M = 1024 (the decoded-beacon path).
void BM_NeighborTableFind(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  drn::Rng rng(5);
  core::NeighborTable table;
  std::vector<StationId> ids;
  while (ids.size() < entries) {
    const auto id = static_cast<StationId>(rng.uniform_index(4 * entries));
    if (table.find(id) != nullptr) continue;
    core::Neighbor n;
    n.id = id;
    n.gain = 1.0e-6;
    table.add(n);
    ids.push_back(id);
  }
  std::vector<StationId> queries(4096);
  for (auto& q : queries) q = ids[rng.uniform_index(ids.size())];
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(queries[k]));
    k = (k + 1) % queries.size();
  }
  state.SetLabel("entries=" + std::to_string(entries));
}
BENCHMARK(BM_NeighborTableFind)->Arg(8)->Arg(1024);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::EventQueue q;
  drn::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    sim::Event e;  // drn-lint: allow(raw-event-copy)
    e.time_s = rng.uniform();
    e.kind = sim::EventKind::kTimer;
    q.push(e);
  }
  double t = 1.0;
  for (auto _ : state) {
    sim::Event e = q.pop();  // drn-lint: allow(raw-event-copy)
    benchmark::DoNotOptimize(e);
    e.time_s = t += 1e-4;
    q.push(e);
  }
}
BENCHMARK(BM_EventQueueChurn);

// -- event-core section: the indexed 4-ary heap's primitive operations ------

void BM_EventQueuePushPop(benchmark::State& state) {
  // Steady-state push+pop at a given standing queue depth: the per-event
  // cost run_until pays when no cancellation happens.
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  drn::Rng rng(5);
  for (std::size_t i = 0; i < depth; ++i) {
    sim::Event e;  // drn-lint: allow(raw-event-copy)
    e.time_s = rng.uniform();
    e.kind = sim::EventKind::kTimer;
    q.push(e);
  }
  double t = 1.0;
  for (auto _ : state) {
    sim::Event e = q.pop();  // drn-lint: allow(raw-event-copy)
    e.time_s = t += 1e-4;
    benchmark::DoNotOptimize(q.push(e));
  }
  state.SetLabel("depth=" + std::to_string(depth));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_EventQueueCancel(benchmark::State& state) {
  // The cancel-heavy pattern the scheme's replan produces: arm a timer,
  // supersede it, arm another. Every cancelled entry is a tombstone the
  // compactor must absorb; this measures push+cancel+push+pop amortized
  // over compaction.
  sim::EventQueue q;
  drn::Rng rng(6);
  for (int i = 0; i < 1024; ++i) {
    sim::Event e;  // drn-lint: allow(raw-event-copy)
    e.time_s = 1.0 + rng.uniform();
    e.kind = sim::EventKind::kTimer;
    q.push(e);
  }
  double t = 2.0;
  for (auto _ : state) {
    sim::Event e;  // drn-lint: allow(raw-event-copy)
    e.kind = sim::EventKind::kTimer;
    e.time_s = t += 1e-4;
    const sim::EventHandle doomed = q.push(e);
    benchmark::DoNotOptimize(q.cancel(doomed));
    e.time_s += 1e-5;
    q.push(e);
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_EventQueueCancel);

void BM_EventQueuePopIfBefore(benchmark::State& state) {
  // run_until's actual primitive: the horizon test and the pop fused into
  // one heap-top read.
  sim::EventQueue q;
  drn::Rng rng(8);
  for (int i = 0; i < 4096; ++i) {
    sim::Event e;  // drn-lint: allow(raw-event-copy)
    e.time_s = rng.uniform();
    e.kind = sim::EventKind::kTimer;
    q.push(e);
  }
  double t = 1.0;
  for (auto _ : state) {
    auto e = q.pop_if_before(1e9);
    benchmark::DoNotOptimize(e);
    e->time_s = t += 1e-4;
    q.push(*e);
  }
}
BENCHMARK(BM_EventQueuePopIfBefore);

void BM_SimulatorEvent(benchmark::State& state) {
  // Cost per simulated hop on a mid-size network under load.
  const auto stations = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto cfg = drn::runner::multihop_config();
    cfg.exact_clock_models = true;
    drn::runner::Trial trial({.stations = stations,
                              .region_m = 1000.0,
                              .rate_pps = 300.0,
                              .duration_s = 1.0,
                              .drain_s = 30.0,
                              .net = cfg},
                             42);
    state.ResumeTiming();
    benchmark::DoNotOptimize(trial.run().delivered);
  }
  state.SetLabel("stations=" + std::to_string(stations));
}
BENCHMARK(BM_SimulatorEvent)->Arg(25)->Arg(50)->Unit(benchmark::kMillisecond);

/// One transmission's life against N open receptions on a 1000-station
/// matrix: start (a walk over every open reception), open and close its own
/// reception, end (a second walk). The visitors do what the medium's do at
/// their cheapest: read the reception's interference once per visit.
void BM_CompensatedEngineWalk(benchmark::State& state) {
  constexpr std::size_t kStations = 1000;
  const auto open = static_cast<std::size_t>(state.range(0));
  drn::Rng rng(9);
  const auto placement = drn::geo::uniform_disc(kStations, 5000.0, rng);
  const drn::radio::PowerLawPropagation model(3.0);
  auto engine = drn::radio::make_compensated_engine(
      drn::radio::make_dense_gains(placement, model));
  const auto station = [&] {
    return static_cast<StationId>(rng.uniform_index(kStations));
  };
  std::uint64_t next_id = 1;
  for (std::size_t i = 0; i < open; ++i) {
    const std::uint64_t id = next_id++;
    engine->transmit_started(id, station(), drn::radio::Watts{1.0}, nullptr,
                             nullptr);
    (void)engine->open_reception(id, station(), nullptr);
  }
  double seen = 0.0;
  const drn::radio::InterferenceEngine::SenderVisitor at_sender =
      [&](drn::radio::ReceptionHandle h) {
        seen += engine->interference(h).value();
      };
  const drn::radio::InterferenceEngine::AffectedVisitor affected =
      [&](drn::radio::ReceptionHandle h, drn::radio::Watts) {
        seen += engine->interference(h).value();
      };
  for (auto _ : state) {
    const std::uint64_t id = next_id++;
    engine->transmit_started(id, station(), drn::radio::Watts{1.0},
                             at_sender, affected);
    engine->close_reception(engine->open_reception(id, station(), nullptr));
    engine->transmit_ended(id, affected);
  }
  benchmark::DoNotOptimize(seen);
  state.SetLabel("open=" + std::to_string(open));
}
BENCHMARK(BM_CompensatedEngineWalk)->Arg(16)->Arg(64)->Arg(256);

drn::geo::Placement disc_placement(std::size_t stations, double region_m) {
  drn::Rng rng(7);
  return drn::geo::uniform_disc(stations, region_m, rng);
}

drn::radio::PropagationMatrix free_space_gains(std::size_t stations,
                                               double region_m) {
  return drn::radio::PropagationMatrix::from_placement(
      disc_placement(stations, region_m), drn::radio::FreeSpacePropagation{});
}

/// The multihop design point's reach: target 1 nW at 0.16 mW, r <= 400 m.
constexpr double kMinGain = 6.25e-6;

/// The disc radius that keeps the Section 8 density the trial benchmark
/// scales by: 1000 stations in 5000 m, about six edges per station.
double trial_density_region_m(std::size_t stations) {
  return 5000.0 * std::sqrt(static_cast<double>(stations) / 1000.0);
}

/// The min-energy graph at trial density, which is what routing runs on.
drn::routing::Graph routing_graph(std::size_t stations) {
  return drn::routing::Graph::min_energy(
      free_space_gains(stations, trial_density_region_m(stations)), kMinGain);
}

/// The dense gain build of every compensated trial: M(M-1)/2 model calls
/// into the packed upper triangle, in parallel row blocks. Wall time, since
/// the work is spread over hardware_jobs() threads.
void BM_DenseGains(benchmark::State& state) {
  const auto stations = static_cast<std::size_t>(state.range(0));
  const auto placement = disc_placement(stations, 1000.0);
  const drn::radio::FreeSpacePropagation model;
  for (auto _ : state) {
    auto gains = drn::radio::PropagationMatrix::from_placement(placement, model);
    benchmark::DoNotOptimize(gains.gain(0, 0));
  }
  state.SetLabel("stations=" + std::to_string(stations));
}
BENCHMARK(BM_DenseGains)
    ->Arg(1000)
    ->Arg(4096)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The min-energy graph's O(M²) pair scan over a built matrix, at trial
/// density, so the scan, not edge insertion, is what is timed.
void BM_MinEnergyGraph(benchmark::State& state) {
  const auto stations = static_cast<std::size_t>(state.range(0));
  const auto gains =
      free_space_gains(stations, trial_density_region_m(stations));
  for (auto _ : state) {
    auto graph = drn::routing::Graph::min_energy(gains, kMinGain);
    benchmark::DoNotOptimize(graph.edge_count());
  }
  state.SetLabel("stations=" + std::to_string(stations));
}
BENCHMARK(BM_MinEnergyGraph)
    ->Arg(4096)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Every destination's tree: the work the all-pairs tables used to do.
void BM_RoutingTablesBuild(benchmark::State& state) {
  const auto stations = static_cast<std::size_t>(state.range(0));
  const auto graph = routing_graph(stations);
  for (auto _ : state) {
    auto tables = drn::routing::RoutingTables::build(graph);
    for (StationId dst = 0; dst < stations; ++dst)
      benchmark::DoNotOptimize(tables.next_hop(dst == 0 ? 1 : 0, dst));
  }
  state.SetLabel("stations=" + std::to_string(stations));
}
BENCHMARK(BM_RoutingTablesBuild)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

/// A trial's pattern: M/2 uniform random pairs routed hop by hop from fresh
/// lazy tables, so only the trees (and tree parts) those routes need are
/// built. `tree_bytes` is what the routes added to the empty tables, per
/// tree built; `settled_per_pair` is the stations the searches settled, per
/// pair.
void BM_RoutingUniformPairs(benchmark::State& state) {
  const auto stations = static_cast<std::size_t>(state.range(0));
  const auto graph = routing_graph(stations);
  drn::Rng rng(8);
  std::vector<std::pair<StationId, StationId>> pairs;
  for (std::size_t i = 0; i < stations / 2; ++i)
    pairs.emplace_back(static_cast<StationId>(rng.uniform_index(stations)),
                       static_cast<StationId>(rng.uniform_index(stations)));
  double tree_bytes = 0.0;
  double settled_per_pair = 0.0;
  for (auto _ : state) {
    const auto tables = drn::routing::RoutingTables::build(graph);
    const std::size_t empty_bytes = tables.memory_bytes();
    for (auto [at, dst] : pairs) {
      while (at != dst && at != drn::kNoStation) at = tables.next_hop(at, dst);
      benchmark::DoNotOptimize(at);
    }
    tree_bytes = static_cast<double>(tables.memory_bytes() - empty_bytes) /
                 static_cast<double>(tables.stats().trees);
    settled_per_pair = static_cast<double>(tables.stats().settled) /
                       static_cast<double>(pairs.size());
  }
  state.counters["tree_bytes"] = tree_bytes;
  state.counters["settled_per_pair"] = settled_per_pair;
  state.SetLabel("stations=" + std::to_string(stations));
}
BENCHMARK(BM_RoutingUniformPairs)
    ->Arg(100)
    ->Arg(300)
    ->Arg(1000)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
