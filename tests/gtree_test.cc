// Tests for the G-tree index: exact distances against Dijkstra across
// parameterized shapes, kNN/Range against brute force, target filtering,
// and structural invariants (border coverage).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "algo/dijkstra.h"
#include "baselines/gtree.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace rne {
namespace {

Graph TestNetwork(uint64_t seed, size_t side = 12) {
  RoadNetworkConfig cfg;
  cfg.rows = side;
  cfg.cols = side;
  cfg.seed = seed;
  return MakeRoadNetwork(cfg);
}

class GTreeSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t, size_t>> {};

TEST_P(GTreeSweep, DistanceMatchesDijkstra) {
  const auto [seed, fanout, leaf_size] = GetParam();
  const Graph g = TestNetwork(seed);
  GTreeOptions opt;
  opt.fanout = fanout;
  opt.leaf_size = leaf_size;
  GTree gtree(g, opt);
  DijkstraSearch dij(g);
  Rng rng(seed);
  for (int i = 0; i < 80; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    EXPECT_NEAR(gtree.Distance(s, t), dij.Distance(s, t), 1e-6)
        << "s=" << s << " t=" << t << " fanout=" << fanout
        << " leaf=" << leaf_size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GTreeSweep,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2}),
                       ::testing::Values(2, 4),
                       ::testing::Values(16, 48)));

TEST(GTreeTest, SameLeafQueriesExact) {
  const Graph g = TestNetwork(3, 8);
  GTreeOptions opt;
  opt.leaf_size = 32;  // several vertices per leaf
  GTree gtree(g, opt);
  DijkstraSearch dij(g);
  const auto& hier = gtree.hierarchy();
  // Pick pairs inside one leaf.
  for (uint32_t id = 0; id < hier.num_nodes(); ++id) {
    const auto& node = hier.node(id);
    if (!node.IsLeaf() || node.vertices.size() < 2) continue;
    const VertexId s = node.vertices.front();
    const VertexId t = node.vertices.back();
    EXPECT_NEAR(gtree.Distance(s, t), dij.Distance(s, t), 1e-6);
    break;
  }
}

TEST(GTreeTest, KnnMatchesBruteForce) {
  const Graph g = TestNetwork(4, 10);
  GTree gtree(g);
  DijkstraSearch dij(g);
  Rng rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto got = gtree.Knn(s, 7);
    ASSERT_EQ(got.size(), 7u);
    const auto& truth = dij.AllDistances(s);
    std::vector<double> sorted(truth.begin(), truth.end());
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].second, sorted[i], 1e-6) << "rank " << i;
    }
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(got[i - 1].second, got[i].second);
    }
  }
}

TEST(GTreeTest, KnnWithTargetSubset) {
  const Graph g = TestNetwork(5, 10);
  GTree gtree(g);
  std::vector<VertexId> targets;
  for (VertexId v = 0; v < g.NumVertices(); v += 7) targets.push_back(v);
  gtree.SetTargets(targets);

  DijkstraSearch dij(g);
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto got = gtree.Knn(s, 5);
    ASSERT_EQ(got.size(), 5u);
    const auto& truth = dij.AllDistances(s);
    std::vector<double> target_dists;
    for (const VertexId t : targets) target_dists.push_back(truth[t]);
    std::sort(target_dists.begin(), target_dists.end());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].second, target_dists[i], 1e-6);
      EXPECT_EQ(got[i].first % 7, 0u) << "non-target returned";
    }
  }
}

TEST(GTreeTest, RangeMatchesBruteForce) {
  const Graph g = TestNetwork(6, 10);
  GTree gtree(g);
  DijkstraSearch dij(g);
  const double tau = 600.0;
  const VertexId s = 17;
  const auto got = gtree.Range(s, tau);
  const std::set<VertexId> got_set(got.begin(), got.end());
  EXPECT_EQ(got_set.size(), got.size());
  const auto& truth = dij.AllDistances(s);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(got_set.count(v) == 1, truth[v] <= tau) << "v=" << v;
  }
}

TEST(GTreeTest, SelfQueryAndAdjacents) {
  const Graph g = TestNetwork(7, 8);
  GTree gtree(g);
  EXPECT_DOUBLE_EQ(gtree.Distance(5, 5), 0.0);
  const auto knn1 = gtree.Knn(5, 1);
  ASSERT_EQ(knn1.size(), 1u);
  EXPECT_EQ(knn1[0].first, 5u);
  EXPECT_DOUBLE_EQ(knn1[0].second, 0.0);
}

TEST(GTreeTest, ReportsIndexSizeAndBorders) {
  const Graph g = TestNetwork(8, 10);
  GTree gtree(g);
  EXPECT_GT(gtree.IndexBytes(), 0u);
  EXPECT_GT(gtree.num_borders(), 0u);
  EXPECT_LT(gtree.num_borders(), g.NumVertices());
  EXPECT_TRUE(gtree.IsExact());
}

}  // namespace
}  // namespace rne
