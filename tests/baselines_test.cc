// Tests for the baseline distance methods: CH/ACH, H2H, Distance Oracle,
// ALT/LT, geo estimators, KD-tree, and the network-expansion kNN. Exact
// methods are verified against Dijkstra over parameterized seeds; approximate
// methods against their error contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "algo/dijkstra.h"
#include "algo/distance_sampler.h"
#include "baselines/alt.h"
#include "baselines/ch.h"
#include "baselines/distance_oracle.h"
#include "baselines/geo.h"
#include "baselines/h2h.h"
#include "baselines/kd_tree.h"
#include "baselines/network_knn.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace rne {
namespace {

Graph TestNetwork(uint64_t seed, size_t side = 12) {
  RoadNetworkConfig cfg;
  cfg.rows = side;
  cfg.cols = side;
  cfg.seed = seed;
  return MakeRoadNetwork(cfg);
}

class ExactMethodSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactMethodSweep, ChMatchesDijkstra) {
  const Graph g = TestNetwork(GetParam());
  ContractionHierarchy ch(g);
  DijkstraSearch dij(g);
  Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    EXPECT_NEAR(ch.Query(s, t), dij.Distance(s, t), 1e-6)
        << "s=" << s << " t=" << t;
  }
}

TEST_P(ExactMethodSweep, H2hMatchesDijkstra) {
  const Graph g = TestNetwork(GetParam() + 50);
  H2HIndex h2h(g);
  DijkstraSearch dij(g);
  Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    EXPECT_NEAR(h2h.Query(s, t), dij.Distance(s, t), 1e-6)
        << "s=" << s << " t=" << t;
  }
}

TEST_P(ExactMethodSweep, AltAStarMatchesDijkstra) {
  const Graph g = TestNetwork(GetParam() + 100);
  Rng rng(GetParam());
  AltIndex alt(g, 8, rng);
  DijkstraSearch dij(g);
  for (int i = 0; i < 40; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    EXPECT_NEAR(alt.ExactDistance(s, t), dij.Distance(s, t), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactMethodSweep, ::testing::Values(1, 2, 3));

// --------------------------------------------------------------------- CH

TEST(ChTest, SelfAndAdjacent) {
  const Graph g = TestNetwork(4);
  ContractionHierarchy ch(g);
  EXPECT_DOUBLE_EQ(ch.Query(7, 7), 0.0);
  const Edge e = g.Neighbors(0)[0];
  DijkstraSearch dij(g);
  EXPECT_NEAR(ch.Query(0, e.to), dij.Distance(0, e.to), 1e-9);
}

TEST(ChTest, DisconnectedReturnsInfinity) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(2, 3, 1.0);
  ContractionHierarchy ch(b.Build());
  EXPECT_EQ(ch.Query(0, 3), kInfDistance);
}

TEST(ChTest, ReportsIndexAndShortcuts) {
  const Graph g = TestNetwork(5);
  ContractionHierarchy ch(g);
  EXPECT_GT(ch.IndexBytes(), 0u);
  EXPECT_TRUE(ch.IsExact());
}

TEST(AchTest, BoundedOverestimate) {
  const Graph g = TestNetwork(6);
  ChOptions opt;
  opt.epsilon = 0.1;
  ContractionHierarchy ach(g, opt);
  EXPECT_FALSE(ach.IsExact());
  DijkstraSearch dij(g);
  Rng rng(6);
  double max_rel = 0.0;
  for (int i = 0; i < 100; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    if (s == t) continue;
    const double exact = dij.Distance(s, t);
    const double approx = ach.Query(s, t);
    // ACH never underestimates (it only removes shortcuts).
    EXPECT_GE(approx, exact - 1e-6);
    max_rel = std::max(max_rel, (approx - exact) / exact);
  }
  // Error compounds along the hierarchy but stays moderate at eps = 0.1.
  EXPECT_LT(max_rel, 0.5);
}

TEST(ChTest, PathUnpacksToValidShortestPath) {
  const Graph g = TestNetwork(30);
  ContractionHierarchy ch(g);
  DijkstraSearch dij(g);
  Rng rng(30);
  for (int i = 0; i < 30; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto path = ch.Path(s, t);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), s);
    EXPECT_EQ(path.back(), t);
    double length = 0.0;
    for (size_t j = 1; j < path.size(); ++j) {
      const double w = g.EdgeWeight(path[j - 1], path[j]);
      ASSERT_NE(w, kInfDistance)
          << "unpacked path uses non-edge " << path[j - 1] << "-" << path[j];
      length += w;
    }
    EXPECT_NEAR(length, dij.Distance(s, t), 1e-6);
  }
}

TEST(ChTest, PathSelfAndDisconnected) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(2, 3, 1.0);
  ContractionHierarchy ch(b.Build());
  EXPECT_EQ(ch.Path(0, 0), (std::vector<VertexId>{0}));
  EXPECT_TRUE(ch.Path(0, 3).empty());
}

TEST(AchTest, PathIsValidAndRealizesQueryDistance) {
  const Graph g = TestNetwork(31);
  ChOptions opt;
  opt.epsilon = 0.15;
  ContractionHierarchy ach(g, opt);
  Rng rng(31);
  for (int i = 0; i < 20; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    if (s == t) continue;
    const auto path = ach.Path(s, t);
    ASSERT_FALSE(path.empty());
    double length = 0.0;
    for (size_t j = 1; j < path.size(); ++j) {
      const double w = g.EdgeWeight(path[j - 1], path[j]);
      ASSERT_NE(w, kInfDistance);
      length += w;
    }
    EXPECT_NEAR(length, ach.Query(s, t), 1e-6)
        << "ACH path must realize the reported (approximate) distance";
  }
}

TEST(AchTest, FewerShortcutsThanExactCh) {
  const Graph g = TestNetwork(7);
  ContractionHierarchy ch(g);
  ChOptions opt;
  opt.epsilon = 0.2;
  ContractionHierarchy ach(g, opt);
  EXPECT_LE(ach.num_shortcuts(), ch.num_shortcuts());
}

// -------------------------------------------------------------------- H2H

TEST(H2hTest, LcaProperties) {
  const Graph g = TestNetwork(8, 8);
  H2HIndex h2h(g);
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    const auto u = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    EXPECT_EQ(h2h.Lca(u, u), u);
  }
}

// Distance() is const and reads only immutable labels, so one index serves
// concurrent callers (the label source of a parallel training run).
TEST(H2hTest, ConcurrentDistancesMatchSerial) {
  const Graph g = TestNetwork(10, 16);
  const H2HIndex h2h(g);
  Rng rng(10);
  std::vector<std::pair<VertexId, VertexId>> pairs(8000);
  for (auto& [s, t] : pairs) {
    s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
  }
  std::vector<double> serial(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    serial[i] = h2h.Distance(pairs[i].first, pairs[i].second);
  }
  constexpr size_t kThreads = 4;
  std::vector<double> concurrent(pairs.size());
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < pairs.size(); i += kThreads) {
        concurrent[i] = h2h.Distance(pairs[i].first, pairs[i].second);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(concurrent[i], serial[i]) << i;
  }
}

TEST(H2hTest, ReportsTreeStats) {
  const Graph g = TestNetwork(9, 8);
  H2HIndex h2h(g);
  EXPECT_GT(h2h.max_bag_size(), 1u);
  EXPECT_GT(h2h.tree_height(), 1u);
  EXPECT_GT(h2h.IndexBytes(), g.NumVertices() * sizeof(double));
}

// -------------------------------------------------------------------- ALT

TEST(AltTest, BoundsBracketExactDistance) {
  const Graph g = TestNetwork(10);
  Rng rng(10);
  AltIndex alt(g, 12, rng);
  DijkstraSearch dij(g);
  for (int i = 0; i < 80; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const double exact = dij.Distance(s, t);
    EXPECT_LE(alt.LowerBound(s, t), exact + 1e-6);
    EXPECT_GE(alt.UpperBound(s, t), exact - 1e-6);
    const double est = alt.Query(s, t);
    EXPECT_GE(est, alt.LowerBound(s, t) - 1e-6);
    EXPECT_LE(est, alt.UpperBound(s, t) + 1e-6);
  }
}

TEST(AltTest, LandmarkQueriesAreExact) {
  const Graph g = TestNetwork(11);
  Rng rng(11);
  AltIndex alt(g, 6, rng);
  DijkstraSearch dij(g);
  // For (landmark, v) pairs the upper and lower bound coincide.
  for (const VertexId lm : alt.landmarks()) {
    const VertexId v = 17;
    EXPECT_NEAR(alt.Query(lm, v), dij.Distance(lm, v), 1e-6);
  }
}

TEST(AltTest, IndexSizeIsLandmarkMatrix) {
  const Graph g = TestNetwork(12, 8);
  Rng rng(12);
  AltIndex alt(g, 4, rng);
  EXPECT_EQ(alt.IndexBytes(), 4 * g.NumVertices() * sizeof(double));
}

// -------------------------------------------------------- Distance Oracle

TEST(DistanceOracleTest, ErrorWithinToleranceEnvelope) {
  const Graph g = TestNetwork(13);
  DistanceOracleOptions opt;
  opt.epsilon = 0.25;
  DistanceOracle oracle(g, opt);
  DijkstraSearch dij(g);
  DistanceSampler sampler(g);
  Rng rng(13);
  const auto val = sampler.RandomPairs(300, rng);
  double err_sum = 0.0;
  for (const auto& s : val) {
    err_sum += std::abs(oracle.Query(s.s, s.t) - s.dist) / s.dist;
  }
  // Geometric well-separation plus representative distances keeps the mean
  // error around epsilon (the paper's DO shows ~5% at eps=0.5).
  EXPECT_LT(err_sum / val.size(), opt.epsilon);
}

TEST(DistanceOracleTest, SelfDistanceZeroAndSymmetryOfCoverage) {
  const Graph g = TestNetwork(14, 8);
  DistanceOracle oracle(g);
  EXPECT_DOUBLE_EQ(oracle.Query(5, 5), 0.0);
  // Same block pair serves both orientations.
  EXPECT_DOUBLE_EQ(oracle.Query(3, 40), oracle.Query(40, 3));
}

TEST(DistanceOracleTest, TighterEpsilonMorePairs) {
  const Graph g = TestNetwork(15, 8);
  DistanceOracleOptions loose;
  loose.epsilon = 1.0;
  DistanceOracleOptions tight;
  tight.epsilon = 0.25;
  const DistanceOracle a(g, loose);
  const DistanceOracle b(g, tight);
  EXPECT_GT(b.num_pairs(), a.num_pairs());
  EXPECT_GT(b.IndexBytes(), a.IndexBytes());
}

// -------------------------------------------------------------------- geo

TEST(GeoTest, EuclideanNeverOverestimatesOnRoadNetworks) {
  const Graph g = TestNetwork(16);
  GeoEstimator euclid(g, GeoMetric::kEuclidean);
  DijkstraSearch dij(g);
  Rng rng(16);
  for (int i = 0; i < 50; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    EXPECT_LE(euclid.Query(s, t), dij.Distance(s, t) + 1e-6);
  }
}

TEST(GeoTest, CalibrationReducesError) {
  const Graph g = TestNetwork(17);
  DistanceSampler sampler(g);
  Rng rng(17);
  const auto samples = sampler.RandomPairs(400, rng);
  GeoEstimator raw(g, GeoMetric::kManhattan);
  GeoEstimator calibrated(g, GeoMetric::kManhattan);
  calibrated.Calibrate(samples);
  auto mean_err = [&](GeoEstimator& est) {
    double sum = 0.0;
    for (const auto& s : samples) {
      sum += std::abs(est.Query(s.s, s.t) - s.dist) / s.dist;
    }
    return sum / samples.size();
  };
  EXPECT_LT(mean_err(calibrated), mean_err(raw) + 1e-9);
  EXPECT_NE(calibrated.factor(), 1.0);
}

// ----------------------------------------------------------------- KD-tree

TEST(KdTreeTest, RangeMatchesBruteForce) {
  const Graph g = TestNetwork(18);
  const KdTree tree(g, GeoMetric::kEuclidean);
  Rng rng(18);
  for (int i = 0; i < 10; ++i) {
    const auto src = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const double tau = rng.UniformReal(100.0, 600.0);
    const auto got = tree.Range(src, tau);
    const std::set<VertexId> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set.size(), got.size());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(got_set.count(v) == 1, EuclideanDistance(g, src, v) <= tau);
    }
  }
}

TEST(KdTreeTest, KnnMatchesBruteForce) {
  const Graph g = TestNetwork(19);
  for (const GeoMetric metric :
       {GeoMetric::kEuclidean, GeoMetric::kManhattan}) {
    const KdTree tree(g, metric);
    Rng rng(19);
    for (int i = 0; i < 10; ++i) {
      const auto src =
          static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
      const auto got = tree.Knn(src, 8);
      ASSERT_EQ(got.size(), 8u);
      std::vector<double> brute;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        brute.push_back(metric == GeoMetric::kEuclidean
                            ? EuclideanDistance(g, src, v)
                            : ManhattanDistance(g, src, v));
      }
      std::sort(brute.begin(), brute.end());
      for (size_t k = 0; k < 8; ++k) {
        EXPECT_NEAR(got[k].second, brute[k], 1e-9);
      }
    }
  }
}

TEST(KdTreeTest, SubsetTargets) {
  const Graph g = TestNetwork(20, 8);
  std::vector<VertexId> targets = {1, 5, 9, 13};
  const KdTree tree(g, GeoMetric::kEuclidean, targets);
  const auto knn = tree.Knn(0, 10);
  EXPECT_EQ(knn.size(), 4u);
  for (const auto& [v, d] : knn) {
    EXPECT_TRUE(std::find(targets.begin(), targets.end(), v) != targets.end());
  }
}

// ------------------------------------------------------------- NetworkKnn

TEST(NetworkKnnTest, KnnMatchesBruteForceNetworkDistances) {
  const Graph g = TestNetwork(21, 8);
  NetworkKnn knn(g);
  DijkstraSearch dij(g);
  Rng rng(21);
  for (int i = 0; i < 10; ++i) {
    const auto src = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto got = knn.Knn(src, 6);
    ASSERT_EQ(got.size(), 6u);
    const auto& truth = dij.AllDistances(src);
    std::vector<double> sorted(truth.begin(), truth.end());
    std::sort(sorted.begin(), sorted.end());
    for (size_t k = 0; k < 6; ++k) {
      EXPECT_NEAR(got[k].second, sorted[k], 1e-9);
    }
  }
}

TEST(NetworkKnnTest, RangeAndTargetFiltering) {
  const Graph g = TestNetwork(22, 8);
  std::vector<VertexId> targets;
  for (VertexId v = 0; v < g.NumVertices(); v += 3) targets.push_back(v);
  NetworkKnn knn(g, targets);
  DijkstraSearch dij(g);
  const double tau = 500.0;
  const auto got = knn.Range(7, tau);
  const std::set<VertexId> got_set(got.begin(), got.end());
  const auto& truth = dij.AllDistances(7);
  for (const VertexId t : targets) {
    EXPECT_EQ(got_set.count(t) == 1, truth[t] <= tau);
  }
  for (const VertexId v : got) {
    EXPECT_EQ(v % 3, 0u) << "non-target in range result";
  }
}

}  // namespace
}  // namespace rne
