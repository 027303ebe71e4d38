// Differential correctness harness: every backend in the serving registry is
// fuzzed against an exact Dijkstra oracle on small generator graphs. Exact
// backends (dijkstra, h2h, gtree) must match the oracle to float epsilon.
// Approximate backends split two ways: the learned model must stay inside a
// loose aggregate error envelope, and the quantized model must stay within
// the analytic quantization bound of the model it was derived from.
//
// Every fuzz loop derives its pairs from one seed, printed at start-up and
// attached to each failure; set RNE_DIFF_SEED=<n> to replay a failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algo/dijkstra.h"
#include "core/quantized.h"
#include "core/rne.h"
#include "graph/generators.h"
#include "serve/backend.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace rne::serve {
namespace {

uint64_t FuzzSeed() {
  static const uint64_t seed = [] {
    uint64_t s = 20260807;
    if (const char* env = std::getenv("RNE_DIFF_SEED")) {
      s = std::strtoull(env, nullptr, 10);
    }
    std::fprintf(stderr,
                 "[differential] fuzz seed = %llu "
                 "(replay with RNE_DIFF_SEED=%llu)\n",
                 static_cast<unsigned long long>(s),
                 static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Exact kNN ground truth from single-source Dijkstra: the k closest
/// reachable vertices (including s itself at distance 0), ascending.
std::vector<std::pair<VertexId, double>> OracleKnn(DijkstraSearch& dij,
                                                   VertexId s, size_t k) {
  const std::vector<double>& dist = dij.AllDistances(s);
  std::vector<std::pair<double, VertexId>> order;
  for (VertexId v = 0; v < dist.size(); ++v) {
    if (dist[v] != kInfDistance) order.emplace_back(dist[v], v);
  }
  const size_t take = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end());
  std::vector<std::pair<VertexId, double>> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.emplace_back(order[i].second, order[i].first);
  }
  return out;
}

class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RoadNetworkConfig cfg;
    cfg.rows = 14;
    cfg.cols = 14;
    cfg.seed = 42;
    graph_ = new Graph(MakeRoadNetwork(cfg));

    RneConfig config;
    config.dim = 32;
    config.train.level_samples = 5000;
    config.train.vertex_samples = 30000;
    config.train.finetune_rounds = 1;
    config.train.finetune_samples = 6000;
    model_ = new Rne(Rne::Build(*graph_, config));

    model_path_ = new std::string(TempPath("differential_model.rne"));
    quant_path_ = new std::string(TempPath("differential_model.qrne"));
    ASSERT_TRUE(model_->Save(*model_path_).ok());
    ASSERT_TRUE(QuantizedRne(*model_).Save(*quant_path_).ok());

    backends_ = new std::map<std::string, std::unique_ptr<QueryBackend>>();
    BackendContext ctx;
    ctx.graph = graph_;
    ctx.num_workers = 1;
    for (const std::string& name : RegisteredBackendNames()) {
      ctx.model_path = name == "rne-quantized" ? *quant_path_ : *model_path_;
      auto backend = MakeBackend(name, ctx);
      ASSERT_TRUE(backend.ok())
          << name << ": " << backend.status().ToString();
      (*backends_)[name] = std::move(backend).value();
    }
  }

  static void TearDownTestSuite() {
    delete backends_;
    std::filesystem::remove(*model_path_);
    std::filesystem::remove(*quant_path_);
    delete quant_path_;
    delete model_path_;
    delete model_;
    delete graph_;
  }

  /// Worst-case de-normalized L1 error introduced by 8-bit quantization:
  /// each coordinate is off by at most one per-dimension step, so two rows
  /// differ by at most scale * sum_d(step_d) where step_d = range_d / 255.
  static double QuantizationBound() {
    const EmbeddingMatrix& emb = model_->vertex_embeddings();
    double bound = 0.0;
    for (size_t d = 0; d < emb.dim(); ++d) {
      float lo = emb.Row(0)[d], hi = emb.Row(0)[d];
      for (size_t v = 1; v < emb.rows(); ++v) {
        lo = std::min(lo, emb.Row(v)[d]);
        hi = std::max(hi, emb.Row(v)[d]);
      }
      bound += static_cast<double>(hi - lo) / 255.0;
    }
    return model_->scale() * bound;
  }

  static Graph* graph_;
  static Rne* model_;
  static std::string* model_path_;
  static std::string* quant_path_;
  static std::map<std::string, std::unique_ptr<QueryBackend>>* backends_;
};

Graph* DifferentialTest::graph_ = nullptr;
Rne* DifferentialTest::model_ = nullptr;
std::string* DifferentialTest::model_path_ = nullptr;
std::string* DifferentialTest::quant_path_ = nullptr;
std::map<std::string, std::unique_ptr<QueryBackend>>*
    DifferentialTest::backends_ = nullptr;

TEST_F(DifferentialTest, EveryBuiltinBackendIsUnderTest) {
  for (const char* name :
       {"rne", "rne-quantized", "dijkstra", "h2h", "gtree"}) {
    EXPECT_TRUE(backends_->count(name)) << name;
  }
}

TEST_F(DifferentialTest, DistanceFuzzAgainstDijkstraOracle) {
  const uint64_t seed = FuzzSeed();
  Rng rng(seed);
  DijkstraSearch oracle(*graph_);
  const size_t n = graph_->NumVertices();
  const double quant_bound = QuantizationBound();
  QueryBackend* rne_full = (*backends_)["rne"].get();

  double rel_err_sum = 0.0;
  size_t rel_err_count = 0;
  constexpr int kPairs = 250;
  for (int i = 0; i < kPairs; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    const auto t = static_cast<VertexId>(rng.UniformIndex(n));
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " pair#" << i
                                    << " s=" << s << " t=" << t);
    const double exact = oracle.Distance(s, t);
    ASSERT_NE(exact, kInfDistance);  // generator graphs are connected
    const double learned = rne_full->Distance(s, t);
    for (const auto& [name, backend] : *backends_) {
      const double got = backend->Distance(s, t);
      ASSERT_TRUE(std::isfinite(got)) << name;
      EXPECT_GE(got, 0.0) << name;
      if (backend->IsExact()) {
        EXPECT_NEAR(got, exact, 1e-6 + 1e-9 * exact) << name;
      } else if (name == "rne-quantized") {
        // Differential vs the full-precision model it was quantized from.
        EXPECT_NEAR(got, learned, quant_bound + 1e-6) << name;
      }
    }
    if (exact > 0.0) {
      rel_err_sum += std::abs(learned - exact) / exact;
      ++rel_err_count;
    }
  }
  // The learned model carries no per-query guarantee; hold the aggregate to
  // a loose envelope far above its typical error (~5-15% mean on these
  // grids) but tight enough to catch a mis-trained or corrupted matrix.
  ASSERT_GT(rel_err_count, 0);
  EXPECT_LT(rel_err_sum / static_cast<double>(rel_err_count), 0.5)
      << "seed=" << seed;
}

TEST_F(DifferentialTest, ExactBackendsAgreeOnSecondGenerator) {
  // Cheap re-check of the exact stack on a differently-shaped graph (kNN
  // geometric instead of perturbed grid). Learned backends are skipped:
  // training a second model is not worth the runtime here.
  const uint64_t seed = FuzzSeed() + 1;
  const Graph g =
      MakeRandomGeometricNetwork(150, 4, 1000.0, /*weight_jitter=*/0.2, seed);
  DijkstraSearch oracle(g);
  BackendContext ctx;
  ctx.graph = &g;
  Rng rng(seed);
  for (const char* name : {"dijkstra", "h2h", "gtree"}) {
    auto backend = MakeBackend(name, ctx);
    ASSERT_TRUE(backend.ok()) << name;
    for (int i = 0; i < 60; ++i) {
      const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
      const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
      const double exact = oracle.Distance(s, t);
      EXPECT_NEAR(backend.value()->Distance(s, t), exact,
                  1e-6 + 1e-9 * exact)
          << name << " seed=" << seed << " s=" << s << " t=" << t;
    }
  }
}

TEST_F(DifferentialTest, KnnFuzzAgainstDijkstraOracle) {
  const uint64_t seed = FuzzSeed() + 2;
  Rng rng(seed);
  DijkstraSearch oracle(*graph_);
  const size_t n = graph_->NumVertices();
  for (int i = 0; i < 20; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    const size_t k = 1 + rng.UniformIndex(12);
    SCOPED_TRACE(testing::Message()
                 << "seed=" << seed << " s=" << s << " k=" << k);
    const auto truth = OracleKnn(oracle, s, k);
    for (const auto& [name, backend] : *backends_) {
      if (!backend->SupportsKnn()) continue;
      const auto got = backend->Knn(s, k);
      ASSERT_EQ(got.size(), truth.size()) << name;
      // Ascending by distance, valid ids, no duplicates — for every backend.
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_LT(got[j].first, n) << name;
        if (j > 0) {
          EXPECT_GE(got[j].second, got[j - 1].second) << name;
        }
        for (size_t l = 0; l < j; ++l) {
          EXPECT_NE(got[j].first, got[l].first) << name << " duplicate";
        }
      }
      if (backend->IsExact()) {
        // Ids may differ on exact distance ties; the sorted distance
        // profiles must match.
        for (size_t j = 0; j < got.size(); ++j) {
          EXPECT_NEAR(got[j].second, truth[j].second, 1e-6)
              << name << " rank " << j;
        }
      } else {
        // Learned kNN is approximate: its own reported distances must at
        // least be self-consistent with the backend's distance function.
        for (size_t j = 0; j < got.size(); ++j) {
          EXPECT_NEAR(got[j].second, backend->Distance(s, got[j].first),
                      1e-3)
              << name << " rank " << j;
        }
      }
    }
  }
}

TEST_F(DifferentialTest, CachedAnswersAreBitIdenticalPerBackend) {
  // The result cache stores answers, never recomputes them — so for every
  // registered backend a cache hit must reproduce the uncached response
  // bit for bit (memcmp on the doubles, not EXPECT_NEAR). Exact distances
  // and every kNN list are cached; an approximate distance (rne,
  // rne-quantized) is not, and the second pass recomputes it to the same
  // bits.
  const uint64_t seed = FuzzSeed() + 4;
  const size_t n = graph_->NumVertices();
  for (const std::string& name : RegisteredBackendNames()) {
    SCOPED_TRACE(testing::Message() << "backend=" << name);
    BackendContext ctx;
    ctx.graph = graph_;
    ctx.num_workers = 1;
    ctx.model_path = name == "rne-quantized" ? *quant_path_ : *model_path_;
    auto backend = MakeBackend(name, ctx);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    const bool knn = backend.value()->SupportsKnn();
    const bool approximate = !backend.value()->IsExact();
    if (name == "rne" || name == "rne-quantized") {
      EXPECT_TRUE(approximate);
    }

    EngineOptions options;
    options.num_threads = 2;
    QueryEngine engine(options);
    engine.AddReadyBackend(std::move(backend).value());
    ResultCache cache;
    CachedEngine cached(&engine, &cache);

    Rng rng(seed);
    std::vector<Request> requests;
    for (int i = 0; i < 40; ++i) {
      Request r;
      r.kind = RequestKind::kDistance;
      r.s = static_cast<VertexId>(rng.UniformIndex(n));
      r.t = static_cast<VertexId>(rng.UniformIndex(n));
      requests.push_back(r);
    }
    if (knn) {
      for (int i = 0; i < 10; ++i) {
        Request r;
        r.kind = RequestKind::kKnn;
        r.s = static_cast<VertexId>(rng.UniformIndex(n));
        r.k = 1 + rng.UniformIndex(8);
        requests.push_back(r);
      }
    }

    std::vector<Response> uncached, hits;
    ASSERT_TRUE(cached.QueryBatch(requests, &uncached).ok());
    ASSERT_TRUE(cached.QueryBatch(requests, &hits).ok());
    ASSERT_EQ(uncached.size(), hits.size());
    size_t want_hits = 0;
    for (size_t i = 0; i < uncached.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "request#" << i);
      ASSERT_TRUE(uncached[i].status.ok())
          << uncached[i].status.ToString();
      const bool want_hit =
          requests[i].kind == RequestKind::kKnn || !approximate;
      want_hits += want_hit ? 1 : 0;
      EXPECT_FALSE(uncached[i].cached);
      EXPECT_EQ(hits[i].cached, want_hit);
      EXPECT_EQ(std::memcmp(&uncached[i].distance, &hits[i].distance,
                            sizeof(double)),
                0);
      ASSERT_EQ(uncached[i].knn.size(), hits[i].knn.size());
      for (size_t j = 0; j < uncached[i].knn.size(); ++j) {
        EXPECT_EQ(uncached[i].knn[j].first, hits[i].knn[j].first);
        EXPECT_EQ(std::memcmp(&uncached[i].knn[j].second,
                              &hits[i].knn[j].second, sizeof(double)),
                  0);
      }
      EXPECT_EQ(uncached[i].backend, hits[i].backend);
      EXPECT_EQ(uncached[i].exact, hits[i].exact);
    }
    EXPECT_EQ(cache.Stats().hits, want_hits);
    if (approximate) {
      EXPECT_LT(want_hits, requests.size());
    }
  }
}

// ------------------------------------------------- mmap vs heap parity
//
// The zero-copy load paths (kMmap, kMmapCold) must serve *bit-identical*
// answers to the heap loader: same file, same doubles, compared with memcmp
// — never EXPECT_NEAR. Any difference means the mapped view and the eager
// deserializer disagree about the matrix bytes.

void ExpectBitIdentical(double want, double got, const char* mode,
                        VertexId s, VertexId t) {
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
      << mode << " s=" << s << " t=" << t << " heap=" << want
      << " served=" << got;
}

TEST_F(DifferentialTest, MmapServedRneBitIdenticalToHeap) {
  auto heap = Rne::Load(*model_path_);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ASSERT_FALSE(heap.value().IsMapped());
  auto mapped = Rne::Load(*model_path_, LoadMode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().IsMapped());
  auto cold = Rne::Load(*model_path_, LoadMode::kMmapCold);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold.value().IsMapped());

  Rng rng(FuzzSeed() + 10);
  const size_t n = graph_->NumVertices();
  std::vector<VertexId> targets;
  for (VertexId v = 0; v < n; v += 7) targets.push_back(v);
  std::vector<double> want(targets.size()), got(targets.size());
  for (int i = 0; i < 300; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    const auto t = static_cast<VertexId>(rng.UniformIndex(n));
    const double reference = heap.value().Query(s, t);
    ExpectBitIdentical(reference, mapped.value().Query(s, t), "mmap", s, t);
    ExpectBitIdentical(reference, cold.value().Query(s, t), "cold", s, t);
  }
  // The batched entry point reads rows through the same zero-copy view.
  heap.value().QueryOneToMany(3, targets, want);
  mapped.value().QueryOneToMany(3, targets, got);
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        want.size() * sizeof(double)),
            0);
}

TEST_F(DifferentialTest, MmapServedQuantizedBitIdenticalToHeap) {
  auto heap = QuantizedRne::Load(*quant_path_);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  auto mapped = QuantizedRne::Load(*quant_path_, LoadMode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().IsMapped());
  auto cold = QuantizedRne::Load(*quant_path_, LoadMode::kMmapCold);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  Rng rng(FuzzSeed() + 11);
  const size_t n = graph_->NumVertices();
  for (int i = 0; i < 300; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    const auto t = static_cast<VertexId>(rng.UniformIndex(n));
    const double reference = heap.value().Query(s, t);
    ExpectBitIdentical(reference, mapped.value().Query(s, t), "mmap", s, t);
    ExpectBitIdentical(reference, cold.value().Query(s, t), "cold", s, t);
  }
}

TEST_F(DifferentialTest, MmapBackendsServeBitIdenticalAnswers) {
  // The registry-built backends that load model files must be oblivious to
  // the load mode: distances AND kNN results (ids and doubles) identical.
  Rng rng(FuzzSeed() + 13);
  const size_t n = graph_->NumVertices();
  for (const char* name : {"rne", "rne-quantized"}) {
    SCOPED_TRACE(testing::Message() << "backend=" << name);
    QueryBackend* heap = (*backends_)[name].get();
    for (const LoadMode mode : {LoadMode::kMmap, LoadMode::kMmapCold}) {
      BackendContext ctx;
      ctx.graph = graph_;
      ctx.num_workers = 1;
      ctx.model_path =
          std::string(name) == "rne-quantized" ? *quant_path_ : *model_path_;
      ctx.load = mode;
      auto served = MakeBackend(name, ctx);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      for (int i = 0; i < 120; ++i) {
        const auto s = static_cast<VertexId>(rng.UniformIndex(n));
        const auto t = static_cast<VertexId>(rng.UniformIndex(n));
        ExpectBitIdentical(heap->Distance(s, t),
                           served.value()->Distance(s, t),
                           LoadModeName(mode), s, t);
      }
      if (heap->SupportsKnn()) {
        const auto want = heap->Knn(5, 8);
        const auto got = served.value()->Knn(5, 8);
        ASSERT_EQ(want.size(), got.size());
        for (size_t j = 0; j < want.size(); ++j) {
          EXPECT_EQ(want[j].first, got[j].first) << "rank " << j;
          EXPECT_EQ(std::memcmp(&want[j].second, &got[j].second,
                                sizeof(double)),
                    0)
              << "rank " << j;
        }
      }
    }
  }
}

TEST_F(DifferentialTest, SelfDistanceIsZeroForExactBackends) {
  Rng rng(FuzzSeed() + 3);
  const size_t n = graph_->NumVertices();
  for (int i = 0; i < 10; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    for (const auto& [name, backend] : *backends_) {
      // Exact backends by definition; learned ones because the self
      // embedding distance ||e_s - e_s|| is identically zero.
      EXPECT_NEAR(backend->Distance(s, s), 0.0, 1e-9) << name;
    }
  }
}

}  // namespace
}  // namespace rne::serve
