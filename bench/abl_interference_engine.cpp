// Ablation: interference-engine throughput and footprint vs station count.
//
// Drives each engine (compensated, nearfar) through an identical synthetic
// churn — a sliding window of concurrent transmissions, each received at the
// sender's nearest neighbour — at fixed station density (region radius grows
// as sqrt(M)). The compensated engine pays the O(M²) PropagationMatrix up
// front and is capped at kDenseMatrixGuardM stations;
// the near/far engine builds an O(M) grid and evaluates gains lazily, so it
// also runs at station counts the dense path cannot reach.
//
// Emits BENCH_interference.json (schema drn-bench-interference-v1):
// events/sec with setup included (the matrix build IS the dense path's cost)
// and over the churn loop alone, RSS before/after setup and peak, and the
// analytic dense-matrix bytes.
//
//   bench_abl_interference_engine [--smoke] [--out PATH]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "geo/grid_index.hpp"
#include "geo/placement.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation.hpp"
#include "runner/json.hpp"

namespace {

using namespace drn;

/// Reads a "Vm*: N kB" line from /proc/self/status; 0 where unsupported.
std::uint64_t proc_status_kb(const char* field) {
  std::ifstream status("/proc/self/status");
  if (!status) return 0;
  std::string line;
  const std::string want = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(want, 0) != 0) continue;
    std::uint64_t kb = 0;
    if (std::sscanf(line.c_str() + want.size(), "%llu",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1)
      return kb;
  }
  return 0;
}

struct RunResult {
  double setup_s = 0.0;
  double wall_s = 0.0;  // setup + churn
  std::uint64_t events = 0;
  std::uint64_t rss_before_kb = 0;
  std::uint64_t rss_after_setup_kb = 0;
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t matrix_bytes = 0;  // dense-matrix gain storage (0 = none)
};

/// Nearest-neighbour targets for every station, via the grid (O(M log)-ish;
/// never the O(M²) brute force).
std::vector<StationId> nearest_neighbors(const geo::Placement& placement,
                                         double cell_m) {
  const geo::GridIndex grid(placement, cell_m);
  std::vector<StationId> nn(placement.size());
  for (StationId s = 0; s < placement.size(); ++s) nn[s] = grid.nearest_other(s);
  return nn;
}

RunResult churn(radio::InterferenceEngineKind kind,
                const geo::Placement& placement, double region_m,
                std::uint64_t target_events) {
  RunResult r;
  r.rss_before_kb = proc_status_kb("VmRSS");
  const auto t0 = std::chrono::steady_clock::now();

  // --- setup: this is where the dense path pays its O(M²) matrix ---
  const radio::FreeSpacePropagation model;
  std::unique_ptr<radio::InterferenceEngine> engine;
  if (kind == radio::InterferenceEngineKind::kNearFar) {
    radio::NearFarConfig nf;
    nf.cutoff = radio::Meters{400.0};  // grows no neighbours at fixed density
    engine = radio::make_nearfar_engine(
        placement, std::make_shared<radio::FreeSpacePropagation>(), nf);
  } else {
    auto gains = radio::make_dense_gains(placement, model);
    r.matrix_bytes = gains.memory_bytes();
    engine = radio::make_compensated_engine(std::move(gains));
  }
  engine->set_thermal_noise(radio::Watts{1.0e-15});
  const auto nn = nearest_neighbors(placement, region_m / 16.0);
  const auto t_setup = std::chrono::steady_clock::now();
  r.setup_s = std::chrono::duration<double>(t_setup - t0).count();
  r.rss_after_setup_kb = proc_status_kb("VmRSS");

  // --- churn: sliding window of concurrent transmissions ---
  constexpr std::size_t kWindow = 64;
  const auto noop_sender = [](radio::ReceptionHandle) {};
  const auto noop_affected = [](radio::ReceptionHandle, radio::Watts) {};
  struct Flight {
    std::uint64_t tx_id;
    radio::ReceptionHandle handle;
  };
  std::deque<Flight> on_air;
  Rng rng(1234);
  std::uint64_t next_tx = 1;
  std::uint64_t events = 0;
  double sink = 0.0;  // defeat dead-code elimination
  while (events < target_events) {
    const auto from = static_cast<StationId>(rng() % placement.size());
    const StationId rx = nn[from];
    // Deliver ~1 nW at the nearest neighbour (the paper's power control).
    const double power = 1.0e-9 / engine->gain(rx, from);
    const std::uint64_t tx = next_tx++;
    engine->transmit_started(tx, from, radio::Watts{power}, noop_sender, noop_affected);
    const auto handle = engine->open_reception(tx, rx, nullptr);
    sink += engine->interference(handle).value();
    on_air.push_back({tx, handle});
    events += 2;  // start + open
    if (on_air.size() > kWindow) {
      engine->close_reception(on_air.front().handle);
      engine->transmit_ended(on_air.front().tx_id, noop_affected);
      on_air.pop_front();
      events += 2;  // close + end
    }
  }
  while (!on_air.empty()) {
    engine->close_reception(on_air.front().handle);
    engine->transmit_ended(on_air.front().tx_id, noop_affected);
    on_air.pop_front();
    events += 2;
  }
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();
  r.events = events;
  r.peak_rss_kb = proc_status_kb("VmHWM");
  if (sink < 0.0) std::cerr << "";  // keep `sink` observable
  return r;
}

int run(bool smoke, const std::string& out_path) {
  // Fixed density: the tab_sec8 100-stations-in-1600-m point, region ∝ √M.
  const double density_region_100 = 1600.0;
  std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{64, 128}
            : std::vector<std::size_t>{256, 1024, 4096, 16384};
  const std::uint64_t target_events = smoke ? 2000 : 20000;

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << '\n';
    return 3;
  }
  runner::json::Writer w(out);
  w.begin_object();
  w.key("schema").value("drn-bench-interference-v1");
  w.key("smoke").value(smoke);
  w.key("window").value(std::uint64_t{64});
  w.key("target_events").value(target_events);
  w.key("runs").begin_array();

  for (const std::size_t m : sizes) {
    const double region_m =
        density_region_100 * std::sqrt(static_cast<double>(m) / 100.0);
    Rng rng(9000 + m);
    const auto placement = geo::uniform_disc(m, region_m, rng);
    for (const auto kind : {radio::InterferenceEngineKind::kNearFar,
                            radio::InterferenceEngineKind::kCompensated}) {
      if (kind != radio::InterferenceEngineKind::kNearFar &&
          m > radio::kDenseMatrixGuardM)
        continue;  // the dense path is capped by design
      const auto res = churn(kind, placement, region_m, target_events);
      // Over setup plus churn, and over the churn loop alone: at large M the
      // dense matrix build dominates the first and would invert the loop
      // comparison.
      const auto rate = [&](double seconds) {
        return seconds > 0.0 ? static_cast<double>(res.events) / seconds : 0.0;
      };
      const double events_per_s = rate(res.wall_s);
      const double loop_events_per_s = rate(res.wall_s - res.setup_s);
      w.begin_object();
      w.key("engine").value(radio::engine_name(kind));
      w.key("stations").value(static_cast<std::uint64_t>(m));
      w.key("region_m").value(region_m);
      w.key("events").value(res.events);
      w.key("setup_s").value(res.setup_s);
      w.key("wall_s").value(res.wall_s);
      w.key("events_per_s").value(events_per_s);
      w.key("loop_events_per_s").value(loop_events_per_s);
      w.key("matrix_bytes").value(res.matrix_bytes);
      w.key("rss_before_kb").value(res.rss_before_kb);
      w.key("rss_after_setup_kb").value(res.rss_after_setup_kb);
      w.key("peak_rss_kb").value(res.peak_rss_kb);
      w.end_object();
      std::cerr << "M=" << m << " " << radio::engine_name(kind) << ": "
                << static_cast<std::uint64_t>(events_per_s) << " events/s, "
                << static_cast<std::uint64_t>(loop_events_per_s)
                << " in the loop (" << res.wall_s << " s, setup "
                << res.setup_s << " s)\n";
    }
  }

  w.end_array();
  w.end_object();
  out << '\n';
  std::cerr << "wrote " << out_path << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_interference.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_abl_interference_engine [--smoke] [--out PATH]\n";
      return 2;
    }
  }
  try {
    return run(smoke, out_path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
