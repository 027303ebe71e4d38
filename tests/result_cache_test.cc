// ResultCache / CachedEngine tests: per-shard LRU eviction order, key-space
// separation between distance and kNN entries, concurrent hit/miss safety
// (run under TSan in CI), generation-bump invalidation, and the hot-swap
// contract — after a ModelManager publish a RELOAD can never serve a stale
// cached distance, pinned here by poisoning the cache and watching the swap
// flush it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/rne.h"
#include "graph/generators.h"
#include "serve/model_manager.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "util/rng.h"

namespace rne::serve {
namespace {

Request Dist(VertexId s, VertexId t) {
  Request r;
  r.kind = RequestKind::kDistance;
  r.s = s;
  r.t = t;
  return r;
}

Request Knn(VertexId s, size_t k) {
  Request r;
  r.kind = RequestKind::kKnn;
  r.s = s;
  r.k = k;
  return r;
}

Response OkDistance(double d, const std::string& backend = "dijkstra") {
  Response resp;
  resp.status = Status::Ok();
  resp.distance = d;
  resp.backend = backend;
  resp.exact = true;
  return resp;
}

TEST(ResultCacheTest, LruEvictionOrderWithinOneShard) {
  ResultCacheOptions options;
  options.capacity = 3;
  options.num_shards = 1;  // one shard => the LRU order is global
  ResultCache cache(options);

  cache.Insert(Dist(0, 1), OkDistance(1.0), cache.generation());
  cache.Insert(Dist(0, 2), OkDistance(2.0), cache.generation());
  cache.Insert(Dist(0, 3), OkDistance(3.0), cache.generation());

  // Touch (0,1): it becomes most-recent, so (0,2) is now the LRU victim.
  Response out;
  ASSERT_TRUE(cache.Lookup(Dist(0, 1), &out));
  EXPECT_EQ(out.distance, 1.0);
  EXPECT_TRUE(out.cached);

  // Evicts (0,2).
  cache.Insert(Dist(0, 4), OkDistance(4.0), cache.generation());

  EXPECT_TRUE(cache.Lookup(Dist(0, 1), &out));
  EXPECT_FALSE(cache.Lookup(Dist(0, 2), &out)) << "LRU entry must be gone";
  EXPECT_TRUE(cache.Lookup(Dist(0, 3), &out));
  EXPECT_TRUE(cache.Lookup(Dist(0, 4), &out));

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.capacity, 3u);
  EXPECT_EQ(stats.shards, 1u);
}

TEST(ResultCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCacheOptions options;
  options.capacity = 2;
  options.num_shards = 1;
  ResultCache cache(options);
  cache.Insert(Dist(1, 2), OkDistance(5.0), cache.generation());
  cache.Insert(Dist(1, 2), OkDistance(5.0), cache.generation());
  EXPECT_EQ(cache.Stats().entries, 1u);
  cache.Insert(Dist(3, 4), OkDistance(6.0), cache.generation());
  EXPECT_EQ(cache.Stats().evictions, 0u) << "re-insert must not double-count";
}

TEST(ResultCacheTest, DistanceAndKnnKeySpacesAreDisjoint) {
  ResultCache cache;
  // Same (s, numeric second field): t=7 for the distance, k=7 for the kNN.
  cache.Insert(Dist(3, 7), OkDistance(42.0), cache.generation());
  Response knn_resp;
  knn_resp.status = Status::Ok();
  knn_resp.knn = {{3, 0.0}, {4, 1.5}};
  knn_resp.backend = "dijkstra";
  knn_resp.exact = true;
  cache.Insert(Knn(3, 7), knn_resp, cache.generation());

  Response out;
  ASSERT_TRUE(cache.Lookup(Dist(3, 7), &out));
  EXPECT_EQ(out.distance, 42.0);
  EXPECT_TRUE(out.knn.empty());

  ASSERT_TRUE(cache.Lookup(Knn(3, 7), &out));
  ASSERT_EQ(out.knn.size(), 2u);
  EXPECT_EQ(out.knn[0].first, 3u);
  EXPECT_EQ(out.knn[1].second, 1.5);
  EXPECT_EQ(out.backend, "dijkstra");
  EXPECT_TRUE(out.exact);
  EXPECT_TRUE(out.cached);
}

TEST(ResultCacheTest, FailedAndFallbackResponsesAreNotCached) {
  ResultCache cache;
  Response failed;
  failed.status = Status::DeadlineExceeded("late");
  cache.Insert(Dist(0, 1), failed, cache.generation());

  Response fallback = OkDistance(9.0);
  fallback.fell_back = true;
  cache.Insert(Dist(0, 2), fallback, cache.generation());

  Response out;
  EXPECT_FALSE(cache.Lookup(Dist(0, 1), &out));
  EXPECT_FALSE(cache.Lookup(Dist(0, 2), &out));
  EXPECT_EQ(cache.Stats().insertions, 0u);

  // Opt-in flips the fallback policy (brownout-heavy deployments).
  ResultCacheOptions options;
  options.cache_fallback = true;
  ResultCache permissive(options);
  permissive.Insert(Dist(0, 2), fallback, permissive.generation());
  EXPECT_TRUE(permissive.Lookup(Dist(0, 2), &out));
}

TEST(ResultCacheTest, InvalidateBumpsGenerationAndDropsEverything) {
  ResultCache cache;
  cache.Insert(Dist(0, 1), OkDistance(1.0), cache.generation());
  cache.Insert(Knn(0, 2), OkDistance(0.0), cache.generation());
  const uint64_t gen0 = cache.generation();

  cache.Invalidate();

  EXPECT_EQ(cache.generation(), gen0 + 1);
  Response out;
  EXPECT_FALSE(cache.Lookup(Dist(0, 1), &out));
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.invalidations, 1u);

  // The cache keeps working under the new generation.
  cache.Insert(Dist(0, 1), OkDistance(2.0), cache.generation());
  ASSERT_TRUE(cache.Lookup(Dist(0, 1), &out));
  EXPECT_EQ(out.distance, 2.0);
}

TEST(ResultCacheTest, StatsJsonHasTheServingFields) {
  ResultCache cache;
  cache.Insert(Dist(0, 1), OkDistance(1.0), cache.generation());
  Response out;
  ASSERT_TRUE(cache.Lookup(Dist(0, 1), &out));
  EXPECT_FALSE(cache.Lookup(Dist(0, 2), &out));
  const std::string json = cache.Stats().ToJson();
  for (const char* key :
       {"\"hits\": 1", "\"misses\": 1", "\"insertions\": 1", "\"evictions\"",
        "\"invalidations\"", "\"generation\"", "\"entries\"", "\"capacity\"",
        "\"shards\"", "\"hit_rate\": 0.5000"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(ResultCacheTest, ConcurrentHitsAndMissesStayConsistent) {
  // Hammer a small cache from several threads; every hit's payload must
  // match the value function of its key. TSan (CI) checks the locking.
  ResultCacheOptions options;
  options.capacity = 256;
  options.num_shards = 4;
  ResultCache cache(options);
  const auto value_of = [](VertexId s, VertexId t) {
    return static_cast<double>(s) * 1e6 + static_cast<double>(t);
  };

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(1234 + static_cast<uint64_t>(w));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto s = static_cast<VertexId>(rng.UniformIndex(64));
        const auto t = static_cast<VertexId>(rng.UniformIndex(64));
        Response out;
        if (cache.Lookup(Dist(s, t), &out)) {
          if (out.distance != value_of(s, t) || !out.cached) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          cache.Insert(Dist(s, t), OkDistance(value_of(s, t)),
                       cache.generation());
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const CacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.entries, stats.capacity);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

TEST(CachedEngineRaceTest, AnswerComputedAcrossAnInvalidateIsNotCached) {
  // A batch that misses, then computes on the old model while another
  // thread's RELOAD invalidates the cache, must not land under the new
  // generation: the next lookup would serve a pre-swap distance. The gate
  // makes the interleaving deterministic.
  class GatedBackend : public QueryBackend {
   public:
    std::string Name() const override { return "gated"; }
    bool IsExact() const override { return false; }
    size_t NumVertices() const override { return 16; }
    size_t IndexBytes() const override { return 0; }
    double Distance(VertexId, VertexId) override {
      entered.set_value();
      gate.wait();
      return 42.0;  // the "old model" answer
    }
    std::promise<void> entered;
    std::shared_future<void> gate;
  };
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(options);
  auto backend = std::make_unique<GatedBackend>();
  GatedBackend* gated = backend.get();
  std::promise<void> release;
  gated->gate = release.get_future().share();
  std::future<void> entered = gated->entered.get_future();
  engine.AddReadyBackend(std::move(backend));
  ResultCache cache;
  CachedEngine cached(&engine, &cache);

  const Request probe = Dist(3, 9);
  std::thread in_flight([&cached, &probe] {
    std::vector<Response> out;
    ASSERT_TRUE(cached.QueryBatch({&probe, 1}, &out).ok());
    EXPECT_TRUE(out[0].status.ok());
    EXPECT_EQ(out[0].distance, 42.0);
  });
  entered.wait();       // the miss is inside the backend, pre-swap
  cache.Invalidate();   // the swap lands meanwhile
  release.set_value();  // the old-model answer completes
  in_flight.join();

  Response out;
  EXPECT_FALSE(cache.Lookup(probe, &out))
      << "a pre-swap answer must be unreachable after Invalidate()";
  EXPECT_EQ(cache.Stats().entries, 0u);
}

class CachedEngineTest : public ::testing::Test {
 protected:
  CachedEngineTest() : graph_(MakeGraph()), engine_(MakeOptions()) {
    BackendContext ctx;
    ctx.graph = &graph_;
    engine_.AddBackend("dijkstra", ctx);
    EXPECT_TRUE(engine_.WaitUntilLoaded().ok());
  }

  static Graph MakeGraph() {
    RoadNetworkConfig cfg;
    cfg.rows = 6;
    cfg.cols = 6;
    cfg.seed = 11;
    return MakeRoadNetwork(cfg);
  }

  static EngineOptions MakeOptions() {
    EngineOptions options;
    options.num_threads = 2;
    return options;
  }

  Graph graph_;
  QueryEngine engine_;
};

TEST_F(CachedEngineTest, SecondPassIsServedFromTheCache) {
  ResultCache cache;
  CachedEngine cached(&engine_, &cache);
  const std::vector<Request> batch = {Dist(0, 5), Dist(1, 7), Knn(2, 3)};

  std::vector<Response> first;
  ASSERT_TRUE(cached.QueryBatch(batch, &first).ok());
  std::vector<Response> second;
  ASSERT_TRUE(cached.QueryBatch(batch, &second).ok());

  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_FALSE(first[i].cached) << i;
    EXPECT_TRUE(second[i].cached) << i;
    EXPECT_EQ(first[i].distance, second[i].distance) << i;
    EXPECT_EQ(first[i].knn, second[i].knn) << i;
    EXPECT_EQ(first[i].backend, second[i].backend) << i;
    EXPECT_EQ(first[i].exact, second[i].exact) << i;
  }
  EXPECT_EQ(cache.Stats().hits, batch.size());
}

TEST_F(CachedEngineTest, NullCacheIsAPassthrough) {
  CachedEngine cached(&engine_, nullptr);
  std::vector<Response> out;
  const std::vector<Request> batch = {Dist(0, 5)};
  ASSERT_TRUE(cached.QueryBatch(batch, &out).ok());
  ASSERT_TRUE(cached.QueryBatch(batch, &out).ok());
  EXPECT_FALSE(out[0].cached);
}

TEST_F(CachedEngineTest, ReloadNeverServesAStaleDistance) {
  // The hot-swap contract: once a ModelManager publishes a new snapshot,
  // previously cached answers are unreachable. Poison the cache with a
  // deliberately wrong distance, fire a publish, and check the next answer
  // comes from the engine, not the poisoned entry.
  ResultCache cache;
  CachedEngine cached(&engine_, &cache);
  ModelManager manager;
  manager.AddPublishListener([&cache](uint64_t) { cache.Invalidate(); });

  const Request probe = Dist(0, 5);
  std::vector<Response> out;
  ASSERT_TRUE(cached.QueryBatch({&probe, 1}, &out).ok());
  const double truth = out[0].distance;

  // Poison: pretend an older model had answered something else.
  cache.Invalidate();
  cache.Insert(probe, OkDistance(truth + 1000.0, "stale-model"),
               cache.generation());
  ASSERT_TRUE(cached.QueryBatch({&probe, 1}, &out).ok());
  ASSERT_TRUE(out[0].cached);
  ASSERT_EQ(out[0].distance, truth + 1000.0) << "poison must be in place";

  // A successful Load() publishes and must flush the poisoned entry. The
  // model file itself is irrelevant to the cache seam; build the cheapest
  // valid one.
  RneConfig config;
  config.dim = 8;
  config.hierarchical = false;
  config.fine_tune = false;
  config.train.vertex_samples = 2000;
  config.train.vertex_epochs = 1;
  const Rne model = Rne::Build(graph_, config);
  const std::string path =
      (std::filesystem::temp_directory_path() / "result_cache_reload.rne")
          .string();
  ASSERT_TRUE(model.Save(path).ok());
  ASSERT_TRUE(manager.Load(path).ok());
  std::filesystem::remove(path);

  ASSERT_TRUE(cached.QueryBatch({&probe, 1}, &out).ok());
  EXPECT_FALSE(out[0].cached) << "post-swap answer must bypass the cache";
  EXPECT_EQ(out[0].distance, truth);
  EXPECT_EQ(out[0].backend, "dijkstra");
  EXPECT_GE(cache.Stats().invalidations, 2u);
}

}  // namespace
}  // namespace rne::serve
