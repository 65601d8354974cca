// Differential tests for the parallel setup passes. The dense gain build and
// the neighbour scan (PropagationMatrix::neighbors_at_least, which feeds both
// the scheduled network and the min-energy graph) run in row blocks on
// drn::parallel_row_blocks; each must equal a serial reference written here,
// bit for bit and in the same order, so the parallel passes cannot change any
// simulated output.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/clock_model.hpp"
#include "core/network_builder.hpp"
#include "core/power_control.hpp"
#include "geo/placement.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation.hpp"
#include "radio/propagation_matrix.hpp"
#include "routing/graph.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace drn {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Row-major M x M gains, filled pair by pair in (i, j) order.
std::vector<double> serial_gains(const geo::Placement& placement,
                                 const radio::PropagationModel& model,
                                 double self_gain) {
  const std::size_t m = placement.size();
  std::vector<double> g(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    g[i * m + i] = self_gain;
    for (std::size_t j = i + 1; j < m; ++j) {
      const double v = model.power_gain(placement[i], placement[j]).value();
      g[i * m + j] = v;
      g[j * m + i] = v;
    }
  }
  return g;
}

std::vector<std::shared_ptr<const radio::PropagationModel>> models() {
  auto free_space = std::make_shared<radio::FreeSpacePropagation>();
  return {free_space,
          std::make_shared<radio::DualSlopePropagation>(radio::Meters{150.0}),
          std::make_shared<radio::LogNormalShadowing>(
              free_space, radio::Decibels{6.0}, 0x5AD0ull)};
}

TEST(ParallelSetup, DenseGainsMatchSerialReference) {
  constexpr double kSelfGain = 3.0;
  for (std::size_t m : {1, 2, 63, 64, 65, 257, 1000}) {
    Rng rng(m);
    const auto placement = geo::uniform_disc(m, 1000.0, rng);
    for (const auto& model : models()) {
      const auto gains = radio::PropagationMatrix::from_placement(
          placement, *model, radio::LinearGain{kSelfGain});
      const std::vector<double> ref = serial_gains(placement, *model, kSelfGain);
      ASSERT_EQ(gains.size(), m);
      std::size_t differing = 0;
      for (StationId i = 0; i < m; ++i)
        for (StationId j = 0; j < m; ++j)
          if (bits(gains.gain(i, j)) != bits(ref[i * m + j])) ++differing;
      EXPECT_EQ(differing, 0u) << "M = " << m;
      for (StationId i = 0; i < m; ++i) EXPECT_EQ(gains.gain(i, i), kSelfGain);
    }
  }
}

/// Free space along a line at 1 m spacing, so a point's x is its station id;
/// throws at the pairs (10, 20) and (200, 250), whose rows are in different
/// blocks.
class ThrowingModel : public radio::PropagationModel {
 public:
  [[nodiscard]] radio::LinearGain power_gain(geo::Vec2 a,
                                             geo::Vec2 b) const override {
    if (a.x == 10.0 && b.x == 20.0) throw std::runtime_error("pair 10-20");
    if (a.x == 200.0 && b.x == 250.0) throw std::runtime_error("pair 200-250");
    return base_.power_gain(a, b);
  }

 private:
  radio::FreeSpacePropagation base_;
};

TEST(ParallelSetup, DenseGainsRethrowTheLowestRowsError) {
  const auto placement = geo::line(300, {0.0, 0.0}, 1.0);
  try {
    (void)radio::PropagationMatrix::from_placement(placement, ThrowingModel{});
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "pair 10-20");
  }
}

/// The scenario of one tab_sec8 network: its placement seed, free-space
/// gains and the network builder's rng, as runner::make_scenario draws them.
struct Sec8Setup {
  runner::ScenarioSpec spec;
  radio::PropagationMatrix gains;
  Rng build_rng;
};

Sec8Setup sec8_setup(std::size_t stations, double region_m,
                     std::uint64_t master_seed) {
  runner::ScenarioSpec spec;
  spec.stations = stations;
  spec.region_m = region_m;
  const std::uint64_t seed = runner::trial_seed(master_seed, 0);
  Rng rng(seed);
  const auto placement = geo::uniform_disc(stations, region_m, rng);
  auto gains = radio::make_dense_gains(placement,
                                       *runner::propagation_model(spec, seed));
  return Sec8Setup{spec, std::move(gains), rng.split(1)};
}

/// tab_sec8's two networks: 100 stations in 1600 m (master seed 606) and
/// 1000 stations in 5000 m (master seed 707).
std::vector<Sec8Setup> sec8_setups() {
  std::vector<Sec8Setup> out;
  out.push_back(sec8_setup(100, 1600.0, 606));
  out.push_back(sec8_setup(1000, 5000.0, 707));
  return out;
}

TEST(ParallelSetup, ScheduledNetworkMatchesSerialReference) {
  for (Sec8Setup& s : sec8_setups()) {
    const core::ScheduledNetworkConfig& cfg = s.spec.net;
    const std::size_t m = s.gains.size();
    Rng ref_rng = s.build_rng;
    const auto net = core::build_scheduled_network(s.gains, s.spec.criterion(),
                                                   cfg, s.build_rng);

    // The serial builder: clocks, then every reachable pair in (i, j) order,
    // each fitting its clock model from four rendezvous over 120 s.
    const auto clocks = core::draw_clocks(m, cfg, ref_rng);
    std::vector<double> times;
    for (std::size_t k = 0; k < 4; ++k)
      times.push_back(-120.0 * (1.0 - static_cast<double>(k) / 3.0) -
                      cfg.slot_s);
    const core::PowerControl power(cfg.target_received_w, cfg.max_power_w);
    std::size_t pairs = 0;
    for (StationId i = 0; i < m; ++i) {
      const auto got = net.macs[i]->neighbors().all();
      std::size_t k = 0;
      for (StationId j = 0; j < m; ++j) {
        const double g = s.gains.gain(i, j);
        if (i == j || !power.reachable(g)) continue;
        const auto clock = core::ClockModel::fit(core::rendezvous(
            clocks[i], clocks[j], times, cfg.rendezvous_noise_s, ref_rng));
        ASSERT_LT(k, got.size()) << "station " << i;
        EXPECT_EQ(got[k].id, j);
        EXPECT_EQ(bits(got[k].gain), bits(g));
        EXPECT_EQ(bits(got[k].clock.a()), bits(clock.a()));
        EXPECT_EQ(bits(got[k].clock.b()), bits(clock.b()));
        EXPECT_EQ(bits(got[k].clock.max_residual_s()),
                  bits(clock.max_residual_s()));
        ++k;
      }
      EXPECT_EQ(k, got.size()) << "station " << i;
      pairs += k;
    }
    EXPECT_GT(pairs, m);
    EXPECT_EQ(s.build_rng(), ref_rng());  // the same number of draws
  }
}

TEST(ParallelSetup, MinEnergyGraphMatchesSerialReference) {
  for (const Sec8Setup& s : sec8_setups()) {
    const double min_gain = s.spec.net.target_received_w / s.spec.net.max_power_w;
    const auto graph = routing::Graph::min_energy(s.gains, min_gain);

    routing::Graph ref(s.gains.size());
    for (StationId i = 0; i < s.gains.size(); ++i) {
      for (StationId j = i + 1; j < s.gains.size(); ++j) {
        const double gain = s.gains.gain(i, j);
        if (gain < min_gain) continue;
        ref.add_edge(i, j, 1.0 / gain, gain);
      }
    }
    ASSERT_EQ(graph.edge_count(), ref.edge_count());
    EXPECT_GT(graph.edge_count(), s.gains.size());
    for (StationId i = 0; i < s.gains.size(); ++i) {
      const auto got = graph.edges(i);
      const auto want = ref.edges(i);
      ASSERT_EQ(got.size(), want.size()) << "station " << i;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].to, want[k].to);
        EXPECT_EQ(bits(got[k].cost), bits(want[k].cost));
        EXPECT_EQ(bits(got[k].gain), bits(want[k].gain));
      }
    }
  }
}

/// Every station's neighbours by the reach rule, pair by pair in (i, j)
/// order over full rows.
std::vector<std::vector<StationId>> serial_neighbors(
    const radio::PropagationMatrix& gains, double min_gain) {
  std::vector<std::vector<StationId>> out(gains.size());
  for (StationId i = 0; i < gains.size(); ++i)
    for (StationId j = 0; j < gains.size(); ++j)
      if (j != i && gains.gain(i, j) >= min_gain) out[i].push_back(j);
  return out;
}

void expect_same_edges(const routing::Graph& got, const routing::Graph& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.edge_count(), want.edge_count());
  for (StationId i = 0; i < got.size(); ++i) {
    const auto a = got.edges(i);
    const auto b = want.edges(i);
    ASSERT_EQ(a.size(), b.size()) << "station " << i;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].to, b[k].to);
      EXPECT_EQ(bits(a[k].cost), bits(b[k].cost));
      EXPECT_EQ(bits(a[k].gain), bits(b[k].gain));
    }
  }
}

/// The one neighbourhood, checked from both consumers: the scan equals the
/// serial reference, the scheduled network's neighbours equal the scan, and
/// the routing graph built from those neighbours equals the one built from
/// the matrix, edge for edge and in order.
void expect_one_neighborhood(const Sec8Setup& s) {
  const double min_gain = s.spec.net.power().min_gain();
  const auto want = serial_neighbors(s.gains, min_gain);
  EXPECT_EQ(s.gains.neighbors_at_least(min_gain), want);
  Rng rng = s.build_rng;
  const auto net = core::build_scheduled_network(s.gains, s.spec.criterion(),
                                                 s.spec.net, rng);
  EXPECT_EQ(net.neighbors, want);
  expect_same_edges(routing::Graph::min_energy(net.neighbors, s.gains),
                    routing::Graph::min_energy(s.gains, min_gain));
}

TEST(Neighborhood, ScanMatchesSerialReferenceOnSec8Networks) {
  for (const Sec8Setup& s : sec8_setups()) {
    SCOPED_TRACE(s.gains.size());
    expect_one_neighborhood(s);
  }
}

TEST(Neighborhood, ScanMatchesSerialReferenceAcrossBlockEdges) {
  // 1000 m discs at the multihop power budget (free-space reach 400 m), so
  // every size has both neighbours and non-neighbours.
  for (std::size_t m : {1, 2, 63, 64, 65, 257}) {
    SCOPED_TRACE(m);
    expect_one_neighborhood(sec8_setup(m, 1000.0, m));
  }
}

/// Two stations at exactly one gain apart, under the multihop power budget.
std::vector<std::size_t> mac_and_routing_links(double gain) {
  const core::ScheduledNetworkConfig cfg = runner::multihop_config();
  radio::PropagationMatrix gains(2);
  gains.set_gain(0, 1, radio::LinearGain{gain});
  Rng rng(1);
  const auto net = core::build_scheduled_network(
      gains, runner::scheme_criterion(), cfg, rng);
  return {net.neighbors[0].size(), net.neighbors[1].size(),
          routing::Graph::min_energy(gains, cfg.power().min_gain())
              .edge_count()};
}

TEST(Neighborhood, BoundaryGainIsMacNeighbourIffRoutingEdge) {
  const double min_gain = runner::multihop_config().power().min_gain();
  const std::vector<std::size_t> none{0, 0, 0};
  const std::vector<std::size_t> both{1, 1, 1};
  EXPECT_EQ(mac_and_routing_links(std::nextafter(min_gain, 0.0)), none);
  EXPECT_EQ(mac_and_routing_links(min_gain), both);
}

}  // namespace
}  // namespace drn
