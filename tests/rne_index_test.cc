// Tests for the range/kNN tree index (Sec VI). The index must agree
// *exactly* with brute force over the embedding metric — its pruning is
// lossless by the triangle inequality; approximation only enters through the
// embedding itself, which is tested elsewhere.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "core/rne_index.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"
#include "util/serialize.h"

namespace rne {
namespace {

using Neighbors = std::vector<std::pair<VertexId, double>>;

class RneIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RoadNetworkConfig cfg;
    cfg.rows = 14;
    cfg.cols = 14;
    cfg.seed = 9;
    graph_ = new Graph(MakeRoadNetwork(cfg));
    RneConfig config;
    config.dim = 16;
    config.train.level_samples = 2000;
    config.train.vertex_samples = 8000;
    config.train.finetune_rounds = 0;
    model_ = new Rne(Rne::Build(*graph_, config));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete graph_;
    model_ = nullptr;
    graph_ = nullptr;
  }

  // The k smallest (Query(source, t), t) pairs, in (distance, id) order.
  static Neighbors BruteKnn(VertexId source, size_t k,
                            const std::vector<VertexId>& targets,
                            const Rne& model = *model_) {
    std::vector<std::pair<double, VertexId>> all;
    for (const VertexId t : targets) {
      all.emplace_back(model.Query(source, t), t);
    }
    std::sort(all.begin(), all.end());
    all.resize(std::min(k, all.size()));
    Neighbors out;
    for (const auto& [d, t] : all) out.emplace_back(t, d);
    return out;
  }

  // Every target within tau of source, by ascending id.
  static std::vector<VertexId> BruteRange(
      VertexId source, double tau, const std::vector<VertexId>& targets,
      const Rne& model = *model_) {
    std::vector<VertexId> out;
    for (const VertexId t : targets) {
      if (model.Query(source, t) <= tau) out.push_back(t);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Element-wise equality: same ids, bit-identical distances.
  static void ExpectSameNeighbors(const Neighbors& got,
                                  const Neighbors& expected,
                                  VertexId source, size_t k) {
    ASSERT_EQ(got.size(), expected.size()) << "source " << source << " k " << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, expected[i].first)
          << "source " << source << " k " << k << " rank " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].second),
                std::bit_cast<uint64_t>(expected[i].second))
          << "source " << source << " k " << k << " rank " << i;
    }
  }

  // The most targets any leaf holds, for k just above one leaf's worth.
  static size_t LargestLeaf() {
    std::vector<size_t> count(model_->hierarchy().num_nodes(), 0);
    for (VertexId v = 0; v < model_->NumVertices(); ++v) {
      ++count[model_->hierarchy().LeafOf(v)];
    }
    return *std::max_element(count.begin(), count.end());
  }

  static std::vector<size_t> KValues(size_t num_targets) {
    return {1, 5, 10, 64, LargestLeaf() + 1, num_targets, num_targets + 7};
  }

  static Graph* graph_;
  static Rne* model_;
};

Graph* RneIndexTest::graph_ = nullptr;
Rne* RneIndexTest::model_ = nullptr;

std::vector<VertexId> AllVertices(const Graph& g) {
  std::vector<VertexId> v(g.NumVertices());
  for (VertexId i = 0; i < g.NumVertices(); ++i) v[i] = i;
  return v;
}

std::vector<VertexId> Sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// A copy of `model` in which every vertex of `copies` carries the
// embedding row of `original`. Training never makes two rows equal, so the
// model is saved, its vertex-embedding section patched, the section and
// table checksums re-sealed, and the file loaded back.
Rne WithCopiedRows(const Rne& model, VertexId original,
                   const std::vector<VertexId>& copies) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("rne_index_copied_rows_" + std::to_string(getpid()) + ".bin"))
          .string();
  EXPECT_TRUE(model.Save(path).ok());
  const auto info = InspectEnvelope(path);
  EXPECT_TRUE(info.ok());
  std::vector<uint8_t> file;
  EXPECT_TRUE(fault::ReadFileBytes(path, &file).ok());
  const auto& sections = info.value().sections;
  size_t index = 0;
  while (sections[index].tag != kSecRneVertexEmb) ++index;
  const SectionInfo& sec = sections[index];
  const size_t row_bytes = model.dim() * sizeof(float);
  for (const VertexId v : copies) {
    std::memcpy(file.data() + sec.offset + v * row_bytes,
                file.data() + sec.offset + original * row_bytes, row_bytes);
  }
  const uint32_t crc = Crc32c(file.data() + sec.pad_start,
                              sec.offset + sec.size - sec.pad_start);
  const size_t entries_at = kEnvelopeHeaderSize + 4;
  std::memcpy(file.data() + entries_at + index * kSectionEntrySize + 24,
              &crc, 4);
  const size_t entries_bytes = sections.size() * kSectionEntrySize;
  uint32_t table_crc = Crc32c(file.data() + kEnvelopeHeaderSize, 4);
  table_crc = Crc32cExtend(table_crc, file.data() + entries_at, entries_bytes);
  std::memcpy(file.data() + entries_at + entries_bytes, &table_crc, 4);
  EXPECT_TRUE(fault::WriteFileBytes(path, file).ok());
  auto loaded = Rne::Load(path);
  std::filesystem::remove(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

TEST_F(RneIndexTest, RangeMatchesBruteForce) {
  const RneIndex index(model_);
  const auto targets = AllVertices(*graph_);
  for (VertexId source = 0; source < graph_->NumVertices(); ++source) {
    for (const double tau : {300.0, 800.0, 2000.0}) {
      EXPECT_EQ(Sorted(index.Range(source, tau)),
                BruteRange(source, tau, targets))
          << "source " << source << " tau " << tau;
    }
  }
}

TEST_F(RneIndexTest, KnnMatchesBruteForce) {
  const RneIndex index(model_);
  const auto targets = AllVertices(*graph_);
  ASSERT_LT(LargestLeaf() + 1, targets.size());
  for (VertexId source = 0; source < graph_->NumVertices(); ++source) {
    for (const size_t k : KValues(targets.size())) {
      ExpectSameNeighbors(index.Knn(source, k), BruteKnn(source, k, targets),
                          source, k);
    }
  }
}

TEST_F(RneIndexTest, NonMetricModelIsSearchedWithoutPruning) {
  // p < 1 is not a metric (the Fig 9 sweep includes p = 0.5), so neither
  // triangle-inequality cut is valid; the index must still be exact.
  RneConfig config;
  config.dim = 16;
  config.p = 0.5;
  config.train.level_samples = 2000;
  config.train.vertex_samples = 8000;
  config.train.finetune_rounds = 0;
  const Rne lp_model = Rne::Build(*graph_, config);
  const RneIndex index(&lp_model);
  for (VertexId source = 0; source < graph_->NumVertices(); ++source) {
    std::vector<std::pair<double, VertexId>> all;
    for (VertexId t = 0; t < graph_->NumVertices(); ++t) {
      all.emplace_back(lp_model.Query(source, t), t);
    }
    std::sort(all.begin(), all.end());
    const auto knn = index.Knn(source, 10);
    ASSERT_EQ(knn.size(), 10u);
    for (size_t i = 0; i < knn.size(); ++i) {
      EXPECT_EQ(knn[i].first, all[i].second) << "source " << source;
    }
    const double tau = all[20].first;
    std::vector<VertexId> within;
    for (const auto& [d, t] : all) {
      if (d <= tau) within.push_back(t);
    }
    EXPECT_EQ(Sorted(index.Range(source, tau)), Sorted(within))
        << "source " << source;
  }
}

TEST_F(RneIndexTest, KnnIncludesSourceWhenTarget) {
  const RneIndex index(model_);
  const auto knn = index.Knn(42, 1);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].first, 42u);
  EXPECT_DOUBLE_EQ(knn[0].second, 0.0);
}

TEST_F(RneIndexTest, SubsetTargets) {
  std::vector<VertexId> targets;
  for (VertexId v = 0; v < graph_->NumVertices(); v += 7) targets.push_back(v);
  const RneIndex index(model_, targets);
  EXPECT_EQ(index.num_targets(), targets.size());

  const auto knn = index.Knn(10, 5);
  ASSERT_EQ(knn.size(), 5u);
  const std::set<VertexId> target_set(targets.begin(), targets.end());
  for (const auto& [v, d] : knn) {
    EXPECT_TRUE(target_set.count(v)) << "kNN returned a non-target";
  }
  ExpectSameNeighbors(knn, BruteKnn(10, 5, targets), 10, 5);

  for (const VertexId v : index.Range(10, 1500.0)) {
    EXPECT_TRUE(target_set.count(v));
  }
}

TEST_F(RneIndexTest, SourceLeafWithoutTargets) {
  // Drop every vertex of one leaf from the targets and query from inside
  // it: the search has no home leaf to seed from and the source is not a
  // target.
  const PartitionHierarchy& hier = model_->hierarchy();
  const uint32_t empty_leaf = hier.LeafOf(77);
  std::vector<VertexId> targets, sources;
  for (VertexId v = 0; v < graph_->NumVertices(); ++v) {
    (hier.LeafOf(v) == empty_leaf ? sources : targets).push_back(v);
  }
  ASSERT_FALSE(sources.empty());
  const RneIndex index(model_, targets);
  for (const VertexId source : sources) {
    for (const size_t k : KValues(targets.size())) {
      ExpectSameNeighbors(index.Knn(source, k), BruteKnn(source, k, targets),
                          source, k);
    }
    for (const double tau : {300.0, 800.0, 2000.0}) {
      EXPECT_EQ(Sorted(index.Range(source, tau)),
                BruteRange(source, tau, targets))
          << "source " << source << " tau " << tau;
    }
  }
}

TEST_F(RneIndexTest, OneTargetIndex) {
  const std::vector<VertexId> targets = {123};
  const RneIndex index(model_, targets);
  for (VertexId source = 0; source < graph_->NumVertices(); ++source) {
    for (const size_t k : {size_t{1}, size_t{3}}) {
      ExpectSameNeighbors(index.Knn(source, k), BruteKnn(source, k, targets),
                          source, k);
    }
    const double d = model_->Query(source, 123);
    EXPECT_EQ(index.Range(source, d), targets) << "source " << source;
    EXPECT_TRUE(index.Range(source, std::nextafter(d, -1.0)).empty())
        << "source " << source;
  }
}

TEST_F(RneIndexTest, EdgeCases) {
  const RneIndex index(model_);
  EXPECT_TRUE(index.Knn(0, 0).empty());
  EXPECT_TRUE(index.Range(0, -1.0).empty());
  // k larger than target count returns everything.
  std::vector<VertexId> three = {1, 2, 3};
  const RneIndex small(model_, three);
  EXPECT_EQ(small.Knn(0, 100).size(), 3u);
}

TEST_F(RneIndexTest, EmptyTargetSet) {
  const RneIndex index(model_, std::vector<VertexId>{});
  EXPECT_EQ(index.num_targets(), 0u);
  EXPECT_TRUE(index.Knn(0, 5).empty());
  EXPECT_TRUE(index.Range(0, 1000.0).empty());
}

TEST_F(RneIndexTest, ConcurrentQueriesMatchSerialAnswers) {
  const RneIndex index(model_);
  const size_t n = graph_->NumVertices();
  std::vector<Neighbors> knn(n);
  std::vector<std::vector<VertexId>> range(n);
  for (VertexId s = 0; s < n; ++s) {
    knn[s] = index.Knn(s, 10);
    range[s] = Sorted(index.Range(s, 800.0));
  }
  constexpr size_t kThreads = 4;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the sources from a different offset, three times.
      for (size_t i = 0; i < 3 * n; ++i) {
        const auto s = static_cast<VertexId>((i + t * n / kThreads) % n);
        mismatches[t] += index.Knn(s, 10) != knn[s];
        mismatches[t] += Sorted(index.Range(s, 800.0)) != range[s];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

TEST_F(RneIndexTest, ParallelBuildMatchesSequential) {
  // Build workers fill disjoint leaf slices of the flat arrays.
  const RneIndex sequential(model_);
  const RneIndex parallel(model_, 4);
  EXPECT_EQ(parallel.MemoryBytes(), sequential.MemoryBytes());
  for (VertexId s = 0; s < graph_->NumVertices(); ++s) {
    EXPECT_EQ(parallel.Knn(s, 10), sequential.Knn(s, 10)) << "source " << s;
    EXPECT_EQ(Sorted(parallel.Range(s, 800.0)),
              Sorted(sequential.Range(s, 800.0)))
        << "source " << s;
  }
}

TEST_F(RneIndexTest, KnnComputesFewRows) {
  // Row distances computed by Knn(s, 10) over every source of the fixture:
  // 13,187 with the node-center/radius and ring bounds the pivot table
  // replaced, 3,198 with the pivot bounds. The assertion allows half the
  // old count.
  const RneIndex index(model_);
  const obs::Counter& rows =
      *obs::MetricsRegistry::Global().GetCounter("index.knn.rows_computed");
  const uint64_t before = rows.Value();
  for (VertexId s = 0; s < graph_->NumVertices(); ++s) index.Knn(s, 10);
  EXPECT_LE(rows.Value() - before, 13187u / 2);
}

TEST_F(RneIndexTest, IdenticalEmbeddingsTieById) {
  // Four vertices share vertex 40's row and six share vertex 7's, so some
  // pivots coincide with other targets (zero pivot distances) and equal
  // distances must come out by ascending id.
  const std::vector<VertexId> same40 = {40, 41, 90, 150};
  const std::vector<VertexId> same7 = {7, 8, 100, 101, 102, 103};
  Rne model = WithCopiedRows(*model_, 40, {41, 90, 150});
  model = WithCopiedRows(model, 7, {8, 100, 101, 102, 103});
  ASSERT_EQ(model.Query(40, 150), 0.0);
  ASSERT_EQ(model.Query(7, 103), 0.0);
  const auto all = AllVertices(*graph_);
  const RneIndex index(&model);
  for (VertexId source = 0; source < graph_->NumVertices(); ++source) {
    for (const size_t k : KValues(all.size())) {
      ExpectSameNeighbors(index.Knn(source, k),
                          BruteKnn(source, k, all, model), source, k);
    }
    EXPECT_EQ(Sorted(index.Range(source, 800.0)),
              BruteRange(source, 800.0, all, model))
        << "source " << source;
  }
  const auto knn = index.Knn(90, same40.size());
  ASSERT_EQ(knn.size(), same40.size());
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_EQ(knn[i].first, same40[i]);
    EXPECT_EQ(knn[i].second, 0.0);
  }
  // Only the duplicated rows as targets: more targets than pivots but
  // two distinct embeddings, so most pivots repeat one another.
  std::vector<VertexId> targets = same40;
  targets.insert(targets.end(), same7.begin(), same7.end());
  ASSERT_GT(targets.size(), RneIndex::kPivots);
  const RneIndex dup(&model, targets);
  for (VertexId source = 0; source < graph_->NumVertices(); ++source) {
    for (size_t k = 1; k <= targets.size() + 1; ++k) {
      ExpectSameNeighbors(dup.Knn(source, k),
                          BruteKnn(source, k, targets, model), source, k);
    }
    const double tau = model.Query(source, 7);
    EXPECT_EQ(Sorted(dup.Range(source, tau)),
              BruteRange(source, tau, targets, model))
        << "source " << source;
  }
}

TEST_F(RneIndexTest, FewerTargetsThanPivots) {
  const std::vector<VertexId> targets = {5, 100, 190};
  static_assert(RneIndex::kPivots > 3);
  const RneIndex index(model_, targets);
  for (VertexId source = 0; source < graph_->NumVertices(); ++source) {
    for (size_t k = 1; k <= targets.size() + 1; ++k) {
      ExpectSameNeighbors(index.Knn(source, k), BruteKnn(source, k, targets),
                          source, k);
    }
    for (const VertexId t : targets) {
      const double d = model_->Query(source, t);
      EXPECT_EQ(Sorted(index.Range(source, d)), BruteRange(source, d, targets))
          << "source " << source << " tau " << d;
    }
  }
}

TEST_F(RneIndexTest, SourceNotTargetAtEveryK) {
  // Every third vertex is a source that is not a target, while its leaf
  // still holds targets (unlike SourceLeafWithoutTargets).
  std::vector<VertexId> targets, sources;
  for (VertexId v = 0; v < graph_->NumVertices(); ++v) {
    (v % 3 == 0 ? sources : targets).push_back(v);
  }
  const RneIndex index(model_, targets);
  for (const VertexId source : sources) {
    for (const size_t k : KValues(targets.size())) {
      ExpectSameNeighbors(index.Knn(source, k), BruteKnn(source, k, targets),
                          source, k);
    }
  }
}

}  // namespace
}  // namespace rne
