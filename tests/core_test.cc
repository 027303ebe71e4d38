// Tests for the RNE core: embedding matrix, hierarchical model, spatial
// grid, sample-selection strategies, the trainer's convergence behaviour,
// and the Rne facade (build, query, save/load).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>

#include "algo/dijkstra.h"
#include "algo/distance_sampler.h"
#include "core/hierarchical_model.h"
#include "core/rne.h"
#include "core/sampler.h"
#include "core/spatial_grid.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace rne {
namespace {

Graph SmallRoadNetwork(uint64_t seed = 7) {
  RoadNetworkConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  cfg.seed = seed;
  return MakeRoadNetwork(cfg);
}

PartitionHierarchy SmallHierarchy(const Graph& g) {
  HierarchyOptions opt;
  opt.fanout = 4;
  opt.leaf_threshold = 32;
  return PartitionHierarchy::Build(g, opt);
}

// --------------------------------------------------------- EmbeddingMatrix

TEST(EmbeddingMatrixTest, RowAccessAndInit) {
  EmbeddingMatrix m(4, 8);
  Rng rng(1);
  m.RandomInit(rng, 0.5);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.dim(), 8u);
  bool nonzero = false;
  for (size_t r = 0; r < m.rows(); ++r) {
    for (const float x : m.Row(r)) {
      EXPECT_LE(std::abs(x), 0.5f);
      nonzero |= (x != 0.0f);
    }
  }
  EXPECT_TRUE(nonzero);
  EXPECT_EQ(m.MemoryBytes(), 4u * 8u * sizeof(float));
}

TEST(EmbeddingMatrixTest, SerializationRoundTrip) {
  EmbeddingMatrix m(3, 5);
  Rng rng(2);
  m.RandomInit(rng, 1.0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rne_emb_test.bin").string();
  constexpr uint32_t kTag = 0x10;
  {
    BinaryWriter w(path, 42);
    w.AddSection(kTag, m.raw(), m.MemoryBytes());
    m.WriteMeta(w);
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SectionInfo* sec = r.FindSection(kTag);
  ASSERT_NE(sec, nullptr);
  EmbeddingMatrix m2;
  ASSERT_TRUE(m2.ReadMeta(r, sec->size));
  ASSERT_TRUE(r.Finish().ok());
  float* data = m2.AllocateOwned(m2.rows(), m2.dim());
  ASSERT_TRUE(r.ReadSectionInto(kTag, data, m2.MemoryBytes()).ok());
  ASSERT_EQ(m2.rows(), m.rows());
  ASSERT_EQ(m2.dim(), m.dim());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t d = 0; d < m.dim(); ++d) {
      EXPECT_EQ(m2.Row(i)[d], m.Row(i)[d]);
    }
  }
  std::filesystem::remove(path);
}

// ------------------------------------------------------- HierarchicalModel

TEST(HierarchicalModelTest, GlobalIsSumOfPathLocals) {
  const Graph g = SmallRoadNetwork();
  const PartitionHierarchy h = SmallHierarchy(g);
  HierarchicalModel model(&h, 16, 1.0);
  Rng rng(3);
  model.RandomInit(rng, 0.5);

  std::vector<float> global(16);
  for (VertexId v = 0; v < g.NumVertices(); v += 13) {
    model.GlobalOf(v, global);
    std::vector<double> expected(16, 0.0);
    for (const uint32_t node : h.AncestorsOf(v)) {
      const auto local = model.NodeLocal(node);
      for (size_t d = 0; d < 16; ++d) expected[d] += local[d];
    }
    const auto vl = model.VertexLocal(v);
    for (size_t d = 0; d < 16; ++d) expected[d] += vl[d];
    for (size_t d = 0; d < 16; ++d) EXPECT_NEAR(global[d], expected[d], 1e-5);
  }
}

TEST(HierarchicalModelTest, FlattenMatchesGlobalOf) {
  const Graph g = SmallRoadNetwork();
  const PartitionHierarchy h = SmallHierarchy(g);
  HierarchicalModel model(&h, 8, 1.0);
  Rng rng(4);
  model.RandomInit(rng, 0.5);
  const EmbeddingMatrix flat = model.FlattenVertices();
  std::vector<float> global(8);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    model.GlobalOf(v, global);
    for (size_t d = 0; d < 8; ++d) EXPECT_EQ(flat.Row(v)[d], global[d]);
  }
}

TEST(HierarchicalModelTest, NodeGlobalsConsistentWithFlattenNodes) {
  const Graph g = SmallRoadNetwork();
  const PartitionHierarchy h = SmallHierarchy(g);
  HierarchicalModel model(&h, 8, 1.0);
  Rng rng(5);
  model.RandomInit(rng, 0.5);
  const EmbeddingMatrix nodes = model.FlattenNodes();
  std::vector<float> buf(8);
  for (uint32_t id = 0; id < h.num_nodes(); ++id) {
    model.NodeGlobalOf(id, buf);
    for (size_t d = 0; d < 8; ++d) EXPECT_NEAR(nodes.Row(id)[d], buf[d], 1e-5);
  }
}

TEST(HierarchicalModelTest, EstimateUsesConfiguredMetric) {
  const Graph g = SmallRoadNetwork();
  const PartitionHierarchy h = SmallHierarchy(g);
  HierarchicalModel model(&h, 8, 2.0);
  Rng rng(6);
  model.RandomInit(rng, 0.5);
  std::vector<float> a(8), b(8);
  model.GlobalOf(0, a);
  model.GlobalOf(100, b);
  EXPECT_NEAR(model.Estimate(0, 100), L2Dist(a, b), 1e-6);
}

// ---------------------------------------------------------------- SpatialGrid

TEST(SpatialGridTest, CellAssignmentCoversAllVertices) {
  const Graph g = SmallRoadNetwork();
  const SpatialGrid grid(g, 4);
  size_t total = 0;
  for (size_t c = 0; c < 16; ++c) total += grid.CellVertices(c).size();
  EXPECT_EQ(total, g.NumVertices());
}

TEST(SpatialGridTest, BucketOfPairIsGridManhattan) {
  const Graph g = MakeGridNetwork(8, 8, 100.0, 0.0, 0.0, 9);
  const SpatialGrid grid(g, 4);
  for (VertexId v = 0; v < g.NumVertices(); v += 9) {
    EXPECT_EQ(grid.BucketOfPair(v, v), 0u);
  }
  EXPECT_EQ(grid.num_buckets(), 7u);
}

TEST(SpatialGridTest, SamplePairLandsInRequestedBucket) {
  const Graph g = SmallRoadNetwork();
  const SpatialGrid grid(g, 6);
  Rng rng(10);
  for (size_t b = 0; b < grid.num_buckets(); ++b) {
    if (!grid.BucketNonEmpty(b)) continue;
    for (int i = 0; i < 50; ++i) {
      VertexId s, t;
      ASSERT_TRUE(grid.SamplePair(b, rng, &s, &t));
      EXPECT_EQ(grid.BucketOfPair(s, t), b);
    }
  }
}

// -------------------------------------------------------------- samplers

TEST(SamplerTest, RandomVertexPairsDistinct) {
  Rng rng(11);
  for (const auto& [s, t] : RandomVertexPairs(50, 200, rng)) {
    EXPECT_NE(s, t);
    EXPECT_LT(s, 50u);
    EXPECT_LT(t, 50u);
  }
}

TEST(SamplerTest, SubgraphLevelPairsStayInsidePartitions) {
  const Graph g = SmallRoadNetwork();
  const PartitionHierarchy h = SmallHierarchy(g);
  Rng rng(12);
  const uint32_t level = 1;
  const auto parts = h.PartitionAtLevel(level);
  // vertex -> part
  std::vector<uint32_t> part_of(g.NumVertices(), UINT32_MAX);
  for (const uint32_t id : parts) {
    for (const VertexId v : h.node(id).vertices) part_of[v] = id;
  }
  for (const auto& [s, t] : SubgraphLevelPairs(h, level, 500, rng)) {
    EXPECT_NE(part_of[s], UINT32_MAX);
    EXPECT_NE(part_of[t], UINT32_MAX);
  }
}

TEST(SamplerTest, LandmarkPairsAnchorOnLandmarks) {
  Rng rng(13);
  const std::vector<VertexId> landmarks = {3, 17, 42};
  for (const auto& [s, t] : LandmarkPairs(landmarks, 100, 300, rng)) {
    EXPECT_TRUE(s == 3 || s == 17 || s == 42);
    EXPECT_NE(s, t);
  }
}

TEST(SamplerTest, ErrorBasedLocalPicksWorstBucket) {
  const Graph g = SmallRoadNetwork();
  const SpatialGrid grid(g, 4);
  Rng rng(14);
  std::vector<double> errors(grid.num_buckets(), 0.0);
  // Mark one non-empty bucket as worst.
  size_t worst = 0;
  for (size_t b = grid.num_buckets(); b-- > 0;) {
    if (grid.BucketNonEmpty(b)) {
      errors[b] = 0.1;
      worst = b;
    }
  }
  errors[worst] = 5.0;
  const auto pairs =
      ErrorBasedPairs(grid, errors, FineTuneStrategy::kLocal, 100, rng);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [s, t] : pairs) {
    EXPECT_EQ(grid.BucketOfPair(s, t), worst);
  }
}

TEST(SamplerTest, ErrorBasedGlobalSpreadsOverBuckets) {
  const Graph g = SmallRoadNetwork();
  const SpatialGrid grid(g, 4);
  Rng rng(15);
  std::vector<double> errors(grid.num_buckets(), 1.0);
  const auto pairs =
      ErrorBasedPairs(grid, errors, FineTuneStrategy::kGlobal, 500, rng);
  std::set<size_t> buckets;
  for (const auto& [s, t] : pairs) buckets.insert(grid.BucketOfPair(s, t));
  EXPECT_GT(buckets.size(), 2u);
}

TEST(SamplerTest, ErrorBasedEmptyWhenNoErrors) {
  const Graph g = SmallRoadNetwork();
  const SpatialGrid grid(g, 4);
  Rng rng(16);
  std::vector<double> errors(grid.num_buckets(), 0.0);
  EXPECT_TRUE(
      ErrorBasedPairs(grid, errors, FineTuneStrategy::kGlobal, 100, rng)
          .empty());
}

// ----------------------------------------------------------------- Trainer

TEST(TrainerTest, ErrorDecreasesAcrossPhases) {
  const Graph g = SmallRoadNetwork();
  const PartitionHierarchy h = SmallHierarchy(g);
  TrainConfig cfg;
  cfg.dim = 32;
  cfg.level_samples = 4000;
  cfg.vertex_samples = 20000;
  cfg.finetune_rounds = 1;
  cfg.finetune_samples = 5000;
  Trainer trainer(g, h, cfg);

  DistanceSampler sampler(g);
  Rng rng(17);
  const auto val = sampler.RandomPairs(500, rng);

  trainer.TrainHierarchyPhase();
  const double after_phase1 = trainer.MeanRelativeError(val);
  trainer.TrainVertexPhase();
  const double after_phase2 = trainer.MeanRelativeError(val);
  trainer.FineTunePhase();
  const double after_phase3 = trainer.MeanRelativeError(val);

  EXPECT_LT(after_phase1, 0.6) << "phase 1 should get coarse structure right";
  EXPECT_LT(after_phase2, after_phase1);
  EXPECT_LT(after_phase3, 0.08) << "full pipeline should reach a few percent";
}

TEST(TrainerTest, ProgressCurveRecorded) {
  const Graph g = SmallRoadNetwork();
  const PartitionHierarchy h = SmallHierarchy(g);
  TrainConfig cfg;
  cfg.dim = 16;
  cfg.level_samples = 1000;
  cfg.level_epochs = 2;
  cfg.vertex_samples = 2000;
  cfg.vertex_epochs = 2;
  cfg.finetune_rounds = 0;
  Trainer trainer(g, h, cfg);
  DistanceSampler sampler(g);
  Rng rng(18);
  trainer.SetValidation(sampler.RandomPairs(200, rng));
  trainer.TrainAll();
  const auto& progress = trainer.progress();
  ASSERT_GT(progress.size(), 2u);
  // Cumulative sample counts strictly increase.
  for (size_t i = 1; i < progress.size(); ++i) {
    EXPECT_GT(progress[i].samples_processed, progress[i - 1].samples_processed);
  }
  // Final error far below the initial one.
  EXPECT_LT(progress.back().mean_rel_error, progress.front().mean_rel_error);
}

// Hogwild sharded SGD must converge to the same quality as the sequential
// reference: same seed, same samples, only num_threads differs. The
// trajectories diverge (update interleaving differs), so compare final
// validation error, not weights. The fine-tune round holds the parallel
// phase-3 path to the same bound.
TEST(TrainerTest, ThreadCountInvariance) {
  const Graph g = SmallRoadNetwork();
  const PartitionHierarchy h = SmallHierarchy(g);
  DistanceSampler sampler(g);
  Rng rng(23);
  const auto val = sampler.RandomPairs(400, rng);

  for (const size_t finetune_rounds : {size_t{0}, size_t{1}}) {
    const auto train_with = [&](size_t threads) {
      TrainConfig cfg;
      cfg.dim = 32;
      cfg.level_samples = 4000;
      cfg.vertex_samples = 20000;
      cfg.finetune_rounds = finetune_rounds;
      cfg.finetune_samples = 5000;
      cfg.num_threads = threads;
      cfg.seed = 13;
      Trainer trainer(g, h, cfg);
      trainer.TrainAll();
      EXPECT_EQ(trainer.sgd_threads(), threads > 1 ? threads : 1);
      return trainer.MeanRelativeError(val);
    };

    const double sequential = train_with(1);
    const double parallel = train_with(4);
    EXPECT_LT(sequential, 0.15) << finetune_rounds << " fine-tune rounds";
    EXPECT_LT(parallel, 0.15) << finetune_rounds << " fine-tune rounds";
    // Within 10% absolute-quality drift of each other (acceptance criterion).
    EXPECT_NEAR(parallel, sequential, 0.1 * (sequential + 0.01) + 0.02)
        << finetune_rounds << " fine-tune rounds";
  }
}

// Frozen-node training, then node training, then frozen again. The parallel
// path reads frozen node rows through per-leaf sums; if those were not
// rebuilt after the node levels trained, the last pass would fit the vertex
// rows against stale node rows and the error would leave the sequential
// run's tolerance.
TEST(TrainerTest, FrozenNodesAfterNodeTrainingMatchSequential) {
  const Graph g = SmallRoadNetwork();
  const PartitionHierarchy h = SmallHierarchy(g);
  DistanceSampler sampler(g);
  Rng val_rng(29);
  const auto val = sampler.RandomPairs(400, val_rng);

  const auto train_with = [&](size_t threads) {
    TrainConfig cfg;
    cfg.dim = 32;
    cfg.num_threads = threads;
    cfg.seed = 31;
    Trainer trainer(g, h, cfg);
    Rng rng(37);
    const auto samples = trainer.Materialize(
        RandomVertexPairs(g.NumVertices(), 20000, rng, cfg.source_reuse));
    const uint32_t levels = trainer.model().num_levels();
    std::vector<double> frozen(levels + 1, 0.0);
    frozen[levels] = cfg.lr0;
    std::vector<double> all(levels + 1, 0.0);
    for (uint32_t l = 1; l <= levels; ++l) all[l] = cfg.lr0 / l;
    trainer.TrainOnSamples(samples, frozen, 2);
    trainer.TrainOnSamples(samples, all, 4);
    trainer.TrainOnSamples(samples, frozen, 4);
    return trainer.MeanRelativeError(val);
  };

  const double sequential = train_with(1);
  const double parallel = train_with(4);
  EXPECT_LT(sequential, 0.15);
  EXPECT_LT(parallel, 0.15);
  EXPECT_NEAR(parallel, sequential, 0.1 * (sequential + 0.01) + 0.02);
}

TEST(TrainerTest, FlatModelTrains) {
  const Graph g = SmallRoadNetwork();
  HierarchyOptions opt;
  opt.leaf_threshold = g.NumVertices();
  const PartitionHierarchy h = PartitionHierarchy::Build(g, opt);
  TrainConfig cfg;
  cfg.dim = 32;
  cfg.vertex_samples = 30000;
  cfg.vertex_epochs = 10;
  cfg.finetune_rounds = 0;
  Trainer trainer(g, h, cfg);
  trainer.TrainVertexPhase();
  DistanceSampler sampler(g);
  Rng rng(19);
  EXPECT_LT(trainer.MeanRelativeError(sampler.RandomPairs(300, rng)), 0.35);
}

// ------------------------------------------------------- Training labels

// Random graph whose edges never cross the two halves of the vertex range,
// so it has at least two components (plus any vertex no edge touched).
Graph RandomTwoHalvesGraph(size_t n, size_t edges, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) {
    b.SetCoord(v, {rng.UniformReal(0.0, 1000.0), rng.UniformReal(0.0, 1000.0)});
  }
  const size_t half = n / 2;
  for (size_t e = 0; e < edges; ++e) {
    const size_t base = e % 2 == 0 ? 0 : half;
    const size_t span = e % 2 == 0 ? half : n - half;
    b.AddEdge(static_cast<VertexId>(base + rng.UniformIndex(span)),
              static_cast<VertexId>(base + rng.UniformIndex(span)),
              rng.UniformReal(1.0, 1000.0));
  }
  return b.Build();
}

/// Every label equals an independent Dijkstra search within 1e-12
/// relative; returns how many pairs were unreachable.
size_t ExpectLabelsMatchDijkstra(const Graph& g,
                                 const std::vector<DistanceSample>& labels,
                                 const std::vector<VertexPair>& pairs) {
  DijkstraSearch dij(g);
  size_t unreachable = 0;
  EXPECT_EQ(labels.size(), pairs.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    const DistanceSample& l = labels[i];
    EXPECT_EQ(l.s, pairs[i].first);
    EXPECT_EQ(l.t, pairs[i].second);
    const double exact = dij.Distance(l.s, l.t);
    if (exact == kInfDistance) {
      EXPECT_EQ(l.dist, kInfDistance) << l.s << " -> " << l.t;
      ++unreachable;
    } else {
      EXPECT_LE(std::abs(l.dist - exact), 1e-12 * exact)
          << l.s << " -> " << l.t;
    }
  }
  return unreachable;
}

TEST(TrainerLabelTest, RoadNetworkLabelsMatchDijkstra) {
  const Graph g = SmallRoadNetwork();
  const PartitionHierarchy h = SmallHierarchy(g);
  TrainConfig cfg;
  cfg.dim = 8;
  Trainer trainer(g, h, cfg);
  Rng rng(31);
  std::vector<VertexPair> pairs =
      SubgraphLevelPairs(h, h.max_level(), 1500, rng, 8);
  const auto uniform = RandomVertexPairs(g.NumVertices(), 1500, rng, 8);
  pairs.insert(pairs.end(), uniform.begin(), uniform.end());
  pairs.emplace_back(5, 5);
  EXPECT_EQ(ExpectLabelsMatchDijkstra(g, trainer.Materialize(pairs), pairs),
            0u);
  EXPECT_GT(trainer.label_seconds(), 0.0);
  EXPECT_GT(trainer.label_index_bytes(), 0u);
}

TEST(TrainerLabelTest, DisconnectedRandomGraphLabelsMatchDijkstra) {
  const Graph g = RandomTwoHalvesGraph(400, 700, 41);
  HierarchyOptions opt;
  opt.leaf_threshold = g.NumVertices();
  const PartitionHierarchy h = PartitionHierarchy::Build(g, opt);
  TrainConfig cfg;
  cfg.dim = 8;
  cfg.num_threads = 2;
  Trainer trainer(g, h, cfg);
  Rng rng(43);
  const auto pairs = RandomVertexPairs(g.NumVertices(), 3000, rng, 8);
  const auto labels = trainer.Materialize(pairs);
  EXPECT_GT(ExpectLabelsMatchDijkstra(g, labels, pairs), 0u);

  // Unreachable labels are skipped by SGD: training on them leaves the
  // model finite.
  std::vector<double> lrs(trainer.model().num_levels() + 1, 0.0);
  lrs[trainer.model().vertex_level()] = cfg.lr0;
  trainer.TrainOnSamples(labels, lrs, 2);
  EXPECT_TRUE(std::isfinite(trainer.MeanRelativeError(labels)));
}

TEST(TrainerLabelTest, LabelsBitIdenticalAcrossThreadCounts) {
  const Graph g = SmallRoadNetwork();
  const PartitionHierarchy h = SmallHierarchy(g);
  Rng rng(47);
  const auto pairs = RandomVertexPairs(g.NumVertices(), 5000, rng, 8);
  const auto label_with = [&](size_t threads) {
    TrainConfig cfg;
    cfg.dim = 8;
    cfg.num_threads = threads;
    Trainer trainer(g, h, cfg);
    return trainer.Materialize(pairs);
  };
  const auto one = label_with(1);
  const auto four = label_with(4);
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(one[i].dist),
              std::bit_cast<uint64_t>(four[i].dist))
        << i;
  }
}

// -------------------------------------------------------------- Rne facade

TEST(RneTest, BuildQuerySaveLoad) {
  const Graph g = SmallRoadNetwork();
  RneConfig config;
  config.dim = 32;
  config.train.level_samples = 4000;
  config.train.vertex_samples = 20000;
  config.train.finetune_rounds = 1;
  config.train.finetune_samples = 5000;
  RneBuildStats stats;
  const Rne model = Rne::Build(g, config, &stats);

  EXPECT_EQ(model.dim(), 32u);
  EXPECT_EQ(model.NumVertices(), g.NumVertices());
  EXPECT_GT(stats.train_seconds, 0.0);
  EXPECT_GT(stats.samples_processed, 0u);
  EXPECT_EQ(model.IndexBytes(), g.NumVertices() * 32 * sizeof(float));

  // Metric axioms on queries.
  EXPECT_DOUBLE_EQ(model.Query(5, 5), 0.0);
  EXPECT_NEAR(model.Query(3, 99), model.Query(99, 3), 1e-6);

  // Accuracy sanity.
  DistanceSampler sampler(g);
  Rng rng(20);
  const auto val = sampler.RandomPairs(400, rng);
  double err = 0.0;
  for (const auto& s : val) {
    err += std::abs(model.Query(s.s, s.t) - s.dist) / s.dist;
  }
  EXPECT_LT(err / val.size(), 0.08);

  // Save / load round trip preserves queries bit-exactly.
  const std::string path =
      (std::filesystem::temp_directory_path() / "rne_model_test.bin").string();
  ASSERT_TRUE(model.Save(path).ok());
  auto loaded = Rne::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int i = 0; i < 100; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    EXPECT_EQ(loaded.value().Query(s, t), model.Query(s, t));
  }
  std::filesystem::remove(path);
}

TEST(RneTest, LoadRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rne_garbage.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a model";
  }
  EXPECT_FALSE(Rne::Load(path).ok());
  std::filesystem::remove(path);
}

TEST(RneTest, NonHierarchicalBuildWorks) {
  const Graph g = SmallRoadNetwork();
  RneConfig config;
  config.dim = 16;
  config.hierarchical = false;
  config.fine_tune = false;
  config.train.vertex_samples = 10000;
  config.train.vertex_epochs = 4;
  const Rne model = Rne::Build(g, config);
  EXPECT_EQ(model.hierarchy().num_nodes(), 1u);
  EXPECT_GT(model.Query(0, 200), 0.0);
}

}  // namespace
}  // namespace rne
