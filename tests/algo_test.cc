// Tests for the shortest-path algorithms: Dijkstra (all variants),
// bidirectional Dijkstra, A*, landmark selection, and the batched distance
// sampler. Ground truth comes from Floyd-Warshall on small random graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "algo/astar.h"
#include "algo/bidirectional_dijkstra.h"
#include "algo/dijkstra.h"
#include "algo/distance_sampler.h"
#include "algo/landmarks.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace rne {
namespace {

/// Random connected graph for property sweeps.
Graph RandomGraph(size_t n, double extra_edge_prob, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) {
    b.SetCoord(v, {rng.UniformReal(0, 100), rng.UniformReal(0, 100)});
  }
  // Random spanning tree keeps it connected.
  for (VertexId v = 1; v < n; ++v) {
    b.AddEdge(v, static_cast<VertexId>(rng.UniformIndex(v)),
              rng.UniformReal(1.0, 10.0));
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(extra_edge_prob)) {
        b.AddEdge(u, v, rng.UniformReal(1.0, 10.0));
      }
    }
  }
  return b.Build();
}

std::vector<std::vector<double>> FloydWarshall(const Graph& g) {
  const size_t n = g.NumVertices();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, kInfDistance));
  for (VertexId v = 0; v < n; ++v) {
    d[v][v] = 0.0;
    for (const Edge& e : g.Neighbors(v)) {
      d[v][e.to] = std::min(d[v][e.to], e.weight);
    }
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (d[i][k] + d[k][j] < d[i][j]) d[i][j] = d[i][k] + d[k][j];
      }
    }
  }
  return d;
}

// --------------------------------------------------- Dijkstra vs brute force

class ShortestPathSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShortestPathSweep, DijkstraMatchesFloydWarshall) {
  const Graph g = RandomGraph(40, 0.05, GetParam());
  const auto truth = FloydWarshall(g);
  DijkstraSearch search(g);
  for (VertexId s = 0; s < g.NumVertices(); s += 7) {
    const auto& dist = search.AllDistances(s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      EXPECT_NEAR(dist[t], truth[s][t], 1e-9);
    }
  }
}

TEST_P(ShortestPathSweep, PointToPointMatchesSssp) {
  const Graph g = RandomGraph(50, 0.03, GetParam() + 100);
  DijkstraSearch search(g);
  Rng rng(GetParam());
  for (int i = 0; i < 30; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const double p2p = search.Distance(s, t);
    DijkstraSearch fresh(g);
    EXPECT_NEAR(p2p, fresh.AllDistances(s)[t], 1e-9);
  }
}

TEST_P(ShortestPathSweep, BidirectionalMatchesDijkstra) {
  const Graph g = RandomGraph(60, 0.04, GetParam() + 200);
  DijkstraSearch dij(g);
  BidirectionalDijkstra bidir(g);
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    EXPECT_NEAR(bidir.Distance(s, t), dij.Distance(s, t), 1e-9);
  }
}

TEST_P(ShortestPathSweep, AStarGeoMatchesDijkstraOnRoadNetwork) {
  RoadNetworkConfig cfg;
  cfg.rows = 10;
  cfg.cols = 10;
  cfg.seed = GetParam();
  const Graph g = MakeRoadNetwork(cfg);
  DijkstraSearch dij(g);
  AStarSearch astar(g);
  Rng rng(GetParam());
  for (int i = 0; i < 30; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    EXPECT_NEAR(astar.DistanceGeo(s, t), dij.Distance(s, t), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShortestPathSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------- Dijkstra variants

TEST(DijkstraTest, SelfDistanceZero) {
  const Graph g = RandomGraph(10, 0.1, 9);
  DijkstraSearch search(g);
  EXPECT_DOUBLE_EQ(search.Distance(3, 3), 0.0);
}

TEST(DijkstraTest, UnreachableIsInfinite) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(2, 3, 1.0);
  const Graph g = b.Build();
  DijkstraSearch search(g);
  EXPECT_EQ(search.Distance(0, 3), kInfDistance);
  EXPECT_EQ(search.AllDistances(0)[2], kInfDistance);
}

TEST(DijkstraTest, WorkspaceReuseIsClean) {
  const Graph g = RandomGraph(30, 0.05, 10);
  DijkstraSearch reused(g);
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    DijkstraSearch fresh(g);
    EXPECT_NEAR(reused.Distance(s, t), fresh.Distance(s, t), 1e-12)
        << "stale state leaked across queries";
  }
}

TEST(DijkstraTest, MultiTargetMatchesFullSssp) {
  const Graph g = RandomGraph(50, 0.05, 11);
  DijkstraSearch search(g);
  const std::vector<VertexId> targets = {1, 7, 7, 23, 49};
  const auto multi = search.MultiTargetDistances(0, targets);
  DijkstraSearch fresh(g);
  const auto& full = fresh.AllDistances(0);
  ASSERT_EQ(multi.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_NEAR(multi[i], full[targets[i]], 1e-12);
  }
}

TEST(DijkstraTest, WithinRadiusSortedAndComplete) {
  const Graph g = RandomGraph(60, 0.05, 12);
  DijkstraSearch search(g);
  const double radius = 8.0;
  const auto within = search.WithinRadius(5, radius);
  // Sorted by distance.
  for (size_t i = 1; i < within.size(); ++i) {
    EXPECT_LE(within[i - 1].second, within[i].second);
  }
  // Matches the SSSP ground truth.
  DijkstraSearch fresh(g);
  const auto& full = fresh.AllDistances(5);
  size_t expected = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (full[v] <= radius) ++expected;
  }
  EXPECT_EQ(within.size(), expected);
  for (const auto& [v, d] : within) EXPECT_NEAR(full[v], d, 1e-12);
}

TEST(DijkstraTest, PathIsValidAndShortest) {
  const Graph g = RandomGraph(40, 0.06, 13);
  DijkstraSearch search(g);
  const double dist = search.Distance(0, 39);
  const auto path = search.Path(0, 39);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 39u);
  double sum = 0.0;
  for (size_t i = 1; i < path.size(); ++i) {
    const double w = g.EdgeWeight(path[i - 1], path[i]);
    ASSERT_NE(w, kInfDistance) << "path uses a non-edge";
    sum += w;
  }
  EXPECT_NEAR(sum, dist, 1e-9);
}

TEST(AStarTest, CustomHeuristicZeroIsDijkstra) {
  const Graph g = RandomGraph(30, 0.05, 14);
  AStarSearch astar(g);
  DijkstraSearch dij(g);
  const auto zero = [](VertexId, VertexId) { return 0.0; };
  EXPECT_NEAR(astar.Distance(2, 27, zero), dij.Distance(2, 27), 1e-9);
}

// --------------------------------------------------------------- landmarks

TEST(LandmarksTest, RandomSelectionDistinct) {
  const Graph g = MakeGridNetwork(6, 6);
  Rng rng(20);
  const auto lm = SelectLandmarksRandom(g, 10, rng);
  EXPECT_EQ(lm.size(), 10u);
  std::set<VertexId> unique(lm.begin(), lm.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(LandmarksTest, FarthestSelectionSpreadsOut) {
  const Graph g = MakeGridNetwork(10, 10, 100.0, 0.0, 0.0, 21);
  Rng rng(21);
  const auto lm = SelectLandmarksFarthest(g, 4, rng);
  ASSERT_EQ(lm.size(), 4u);
  // Pairwise network distances between farthest landmarks must exceed the
  // expected distance of random pairs by a clear margin.
  DijkstraSearch search(g);
  double min_pair = kInfDistance;
  for (size_t i = 0; i < lm.size(); ++i) {
    for (size_t j = i + 1; j < lm.size(); ++j) {
      min_pair = std::min(min_pair, search.Distance(lm[i], lm[j]));
    }
  }
  EXPECT_GT(min_pair, 300.0);  // grid is 900 wide; random pairs average ~600
}

TEST(LandmarksTest, CountClampedToGraphSize) {
  const Graph g = MakeGridNetwork(2, 2);
  Rng rng(22);
  EXPECT_EQ(SelectLandmarksFarthest(g, 100, rng).size(), 4u);
}

/// The farthest-point selection as it stood before its searches were
/// pruned: one full Dijkstra search per landmark. The reference for the
/// differential test below.
std::vector<VertexId> FullSearchFarthestLandmarks(const Graph& g, size_t count,
                                                  Rng& rng) {
  const size_t n = g.NumVertices();
  count = std::min(count, n);
  std::vector<VertexId> landmarks;
  if (count == 0) return landmarks;
  landmarks.reserve(count);
  landmarks.push_back(static_cast<VertexId>(rng.UniformIndex(n)));
  DijkstraSearch search(g);
  std::vector<double> min_dist(n, kInfDistance);
  while (landmarks.size() < count) {
    const auto& dist = search.AllDistances(landmarks.back());
    VertexId farthest = kInvalidVertex;
    double best = -1.0;
    for (VertexId v = 0; v < n; ++v) {
      if (dist[v] < min_dist[v]) min_dist[v] = dist[v];
      if (min_dist[v] != kInfDistance && min_dist[v] > best) {
        best = min_dist[v];
        farthest = v;
      }
    }
    if (farthest == kInvalidVertex || best == 0.0) break;
    landmarks.push_back(farthest);
  }
  return landmarks;
}

/// Random graph whose edges never join the two halves of the vertex range.
Graph TwoHalvesGraph(size_t n, size_t edges, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) {
    b.SetCoord(v, {rng.UniformReal(0, 100), rng.UniformReal(0, 100)});
  }
  const size_t half = n / 2;
  for (size_t e = 0; e < edges; ++e) {
    const size_t base = e % 2 == 0 ? 0 : half;
    const size_t span = e % 2 == 0 ? half : n - half;
    b.AddEdge(static_cast<VertexId>(base + rng.UniformIndex(span)),
              static_cast<VertexId>(base + rng.UniformIndex(span)),
              rng.UniformReal(1.0, 10.0));
  }
  return b.Build();
}

/// rows x cols grid with every edge of weight exactly 1: many vertices tie
/// for the farthest one, so the pick depends on exact distance equality.
Graph UnitGrid(size_t rows, size_t cols) {
  GraphBuilder b(rows * cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const auto v = static_cast<VertexId>(r * cols + c);
      b.SetCoord(v, {static_cast<double>(c), static_cast<double>(r)});
      if (c + 1 < cols) b.AddEdge(v, v + 1, 1.0);
      if (r + 1 < rows) b.AddEdge(v, static_cast<VertexId>(v + cols), 1.0);
    }
  }
  return b.Build();
}

TEST(LandmarksTest, PrunedFarthestMatchesFullSearch) {
  std::vector<std::pair<std::string, Graph>> graphs;
  const size_t sizes[][2] = {{6, 6}, {10, 14}, {16, 16}, {24, 24}};
  for (size_t i = 0; i < 4; ++i) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      RoadNetworkConfig cfg;
      cfg.rows = sizes[i][0];
      cfg.cols = sizes[i][1];
      cfg.seed = seed;
      graphs.emplace_back("road " + std::to_string(cfg.rows) + "x" +
                              std::to_string(cfg.cols) + " seed " +
                              std::to_string(seed),
                          MakeRoadNetwork(cfg));
    }
  }
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    graphs.emplace_back("two halves seed " + std::to_string(seed),
                        TwoHalvesGraph(60 + 20 * seed, 100 + 30 * seed, seed));
  }
  for (const size_t side : {1, 2, 5, 9, 16}) {
    graphs.emplace_back("unit grid " + std::to_string(side),
                        UnitGrid(side, side + 1));
  }
  ASSERT_GE(graphs.size(), 20u);
  for (const auto& [name, g] : graphs) {
    for (const size_t count : {size_t{1}, size_t{2}, size_t{8}, size_t{100},
                               g.NumVertices() + 7}) {
      for (const uint64_t seed : {11u, 12u}) {
        Rng ref_rng(seed);
        Rng rng(seed);
        const auto expected = FullSearchFarthestLandmarks(g, count, ref_rng);
        EXPECT_EQ(SelectLandmarksFarthest(g, count, rng), expected)
            << name << ", count " << count << ", seed " << seed;
        // Both consume the generator identically.
        EXPECT_EQ(rng.engine()(), ref_rng.engine()()) << name;
      }
    }
  }
}

// --------------------------------------------------------- DistanceSampler

TEST(DistanceSamplerTest, MatchesDijkstra) {
  const Graph g = RandomGraph(50, 0.05, 23);
  DistanceSampler sampler(g, 2);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng.UniformIndex(50)),
                       static_cast<VertexId>(rng.UniformIndex(50)));
  }
  const auto samples = sampler.ComputeDistances(pairs);
  DijkstraSearch search(g);
  ASSERT_EQ(samples.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(samples[i].s, pairs[i].first);
    EXPECT_EQ(samples[i].t, pairs[i].second);
    EXPECT_NEAR(samples[i].dist,
                search.Distance(pairs[i].first, pairs[i].second), 1e-9);
  }
}

TEST(DistanceSamplerTest, RandomPairsDistinctEndpoints) {
  const Graph g = RandomGraph(20, 0.1, 24);
  DistanceSampler sampler(g, 1);
  Rng rng(24);
  const auto samples = sampler.RandomPairs(100, rng);
  ASSERT_EQ(samples.size(), 100u);
  for (const auto& s : samples) {
    EXPECT_NE(s.s, s.t);
    EXPECT_GT(s.dist, 0.0);
  }
}

}  // namespace
}  // namespace rne
