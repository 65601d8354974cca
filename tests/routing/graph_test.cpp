#include "routing/graph.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"
#include "geo/placement.hpp"
#include "radio/noise_growth.hpp"
#include "radio/propagation.hpp"

namespace drn::routing {
namespace {

radio::PropagationMatrix chain3() {
  radio::PropagationMatrix m(3);
  m.set_gain(0, 1, radio::LinearGain{0.5});
  m.set_gain(1, 2, radio::LinearGain{0.25});
  m.set_gain(0, 2, radio::LinearGain{0.01});
  return m;
}

TEST(Graph, MinEnergyCostsAreReciprocalGains) {
  const auto g = Graph::min_energy(chain3(), 0.001);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  bool found01 = false;
  for (const Edge& e : g.edges(0)) {
    if (e.to == 1) {
      found01 = true;
      EXPECT_DOUBLE_EQ(e.cost, 2.0);  // 1/0.5
      EXPECT_DOUBLE_EQ(e.gain, 0.5);
    }
  }
  EXPECT_TRUE(found01);
}

TEST(Graph, ThresholdPrunesWeakLinks) {
  const auto g = Graph::min_energy(chain3(), 0.1);
  EXPECT_EQ(g.edge_count(), 2u);  // 0-2 (gain 0.01) pruned
  for (const Edge& e : g.edges(0)) EXPECT_NE(e.to, 2u);
}

TEST(Graph, MinHopUnitCosts) {
  const auto g = Graph::min_hop(chain3(), 0.001);
  for (StationId s = 0; s < 3; ++s)
    for (const Edge& e : g.edges(s)) EXPECT_DOUBLE_EQ(e.cost, 1.0);
}

TEST(Graph, EdgesAreBidirectional) {
  const auto g = Graph::min_energy(chain3(), 0.001);
  for (StationId s = 0; s < 3; ++s) {
    for (const Edge& e : g.edges(s)) {
      bool reverse = false;
      for (const Edge& r : g.edges(e.to)) reverse |= (r.to == s);
      EXPECT_TRUE(reverse);
    }
  }
}

TEST(Graph, ConnectedDetection) {
  const auto connected = Graph::min_energy(chain3(), 0.001);
  EXPECT_TRUE(connected.connected());
  radio::PropagationMatrix m(4);
  m.set_gain(0, 1, radio::LinearGain{1.0});
  m.set_gain(2, 3, radio::LinearGain{1.0});
  const auto split = Graph::min_energy(m, 0.5);
  EXPECT_FALSE(split.connected());
}

TEST(Graph, SingletonIsConnected) {
  EXPECT_TRUE(Graph(1).connected());
}

TEST(Graph, Degrees) {
  const auto g = Graph::min_energy(chain3(), 0.1);
  const auto d = g.degrees();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0], 1u);
  EXPECT_EQ(d[1], 2u);
  EXPECT_EQ(d[2], 1u);
}

TEST(Graph, PaperNeighborCountStaysSmall) {
  // Section 5: with minimum-energy style reach (a handful of expected
  // neighbours), "the number of routing neighbors never exceeded eight" in
  // the author's random placements. Build random 100-station networks with
  // a reach of 2*R0 (expected 4 neighbours) and check degrees stay small.
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 100;
    const double region = 1000.0;
    const auto placement = geo::uniform_disc(n, region, rng);
    const radio::FreeSpacePropagation model;
    const auto gains = radio::PropagationMatrix::from_placement(placement, model);
    const double density = radio::disc_density(n, radio::Meters{region});
    const double r0 = radio::characteristic_length(density).value();
    const double reach = 2.0 * r0;
    const auto g = Graph::min_energy(gains, 1.0 / (reach * reach));
    double mean_degree = 0.0;
    for (std::size_t d : g.degrees())
      mean_degree += static_cast<double>(d);
    mean_degree /= static_cast<double>(n);
    EXPECT_NEAR(mean_degree, 4.0, 1.5);  // expected-neighbour count ~ 4
  }
}

TEST(Graph, HandshakeLemmaDegreeSum) {
  // Sum of degrees equals twice the undirected edge count, for random
  // graphs of varying density.
  Rng rng(88);
  for (double reach : {100.0, 250.0, 600.0}) {
    const auto placement = geo::uniform_disc(60, 500.0, rng);
    const radio::FreeSpacePropagation model;
    const auto gains =
        radio::PropagationMatrix::from_placement(placement, model);
    const auto g = Graph::min_energy(gains, 1.0 / (reach * reach));
    std::size_t degree_sum = 0;
    for (std::size_t d : g.degrees()) degree_sum += d;
    EXPECT_EQ(degree_sum, 2 * g.edge_count()) << reach;
  }
}

TEST(Graph, AddEdgeContracts) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 0, 1.0, 1.0), ContractViolation);
  EXPECT_THROW(g.add_edge(0, 3, 1.0, 1.0), ContractViolation);
  EXPECT_THROW(g.add_edge(0, 1, 0.0, 1.0), ContractViolation);
  EXPECT_THROW(g.add_edge(0, 1, 1.0, 0.0), ContractViolation);
  EXPECT_THROW(Graph(0), ContractViolation);
  EXPECT_THROW((void)Graph::min_energy(chain3(), 0.0), ContractViolation);
}

TEST(Graph, NeighborListsMustBeSymmetricAndSized) {
  using Lists = std::vector<std::vector<StationId>>;
  const auto g = Graph::min_energy(Lists{{1}, {0, 2}, {1}}, chain3());
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(g.edges(1)[1].cost, 4.0);  // 1 / 0.25
  EXPECT_THROW((void)Graph::min_energy(Lists{{1}, {}, {}}, chain3()),
               ContractViolation);
  EXPECT_THROW((void)Graph::min_energy(Lists{{}, {0}, {}}, chain3()),
               ContractViolation);
  EXPECT_THROW((void)Graph::min_energy(Lists{{}, {}}, chain3()),
               ContractViolation);
}

}  // namespace
}  // namespace drn::routing
