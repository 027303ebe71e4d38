// ResultCache / CachedEngine tests: per-shard LRU eviction order, key-space
// separation between distance and kNN entries, concurrent hit/miss safety
// (run under TSan in CI), generation-bump invalidation, and the hot-swap
// contract — after a ModelManager publish a RELOAD can never serve a stale
// cached distance, pinned here by poisoning the cache and watching the swap
// flush it. CachedEngine's policy: learned distances neither look up nor
// insert, kNN lists and exact answers do (a cold exact chain's first batch
// included). A reference-model differential replays a seeded random call
// sequence against the std::list + std::unordered_map cache the flat shards
// replaced.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <future>
#include <list>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
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
  // generation: the next lookup would serve a pre-swap answer. The request
  // is a kNN one, the learned answer the cache keeps. The gate makes the
  // interleaving deterministic.
  class GatedBackend : public QueryBackend {
   public:
    std::string Name() const override { return "gated"; }
    bool IsExact() const override { return false; }
    size_t NumVertices() const override { return 16; }
    size_t IndexBytes() const override { return 0; }
    double Distance(VertexId, VertexId) override { return 0.0; }
    bool SupportsKnn() const override { return true; }
    std::vector<std::pair<VertexId, double>> Knn(VertexId, size_t) override {
      entered.set_value();
      gate.wait();
      return {{9, 42.0}};  // the "old model" answer
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

  const Request probe = Knn(3, 1);
  std::thread in_flight([&cached, &probe] {
    std::vector<Response> out;
    ASSERT_TRUE(cached.QueryBatch({&probe, 1}, &out).ok());
    EXPECT_TRUE(out[0].status.ok());
    const std::vector<std::pair<VertexId, double>> want = {{9, 42.0}};
    EXPECT_EQ(out[0].knn, want);
  });
  entered.wait();       // the miss is inside the backend, pre-swap
  cache.Invalidate();   // the swap lands meanwhile
  release.set_value();  // the old-model answer completes
  in_flight.join();

  Response out;
  EXPECT_FALSE(cache.Lookup(probe, &out))
      << "a pre-swap answer must be unreachable after Invalidate()";
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().misses, 2u) << "the kNN request was looked up";
}

// The node-based cache the flat shards replaced, kept as the oracle: same
// hash, shard choice, per-shard capacity, refresh-keeps-value and counting
// rules, one call at a time. Single-threaded, so no locks.
class ReferenceCache {
 public:
  explicit ReferenceCache(const ResultCacheOptions& options) {
    size_t shards = 1;
    while (shards < std::max<size_t>(1, options.num_shards)) shards <<= 1;
    capacity_ = std::max<size_t>(1, options.capacity);
    per_shard_capacity_ = std::max<size_t>(1, capacity_ / shards);
    shards_.resize(shards);
  }

  bool Lookup(const Request& request, Response* out) {
    const Key key = MakeKey(request, generation_);
    Shard& shard = ShardFor(key);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++misses_;
      return false;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    const Value& value = it->second->second;
    out->status = Status::Ok();
    out->distance = value.distance;
    out->knn = value.knn;
    out->backend = value.backend;
    out->exact = value.exact;
    out->fell_back = false;
    out->cached = true;
    ++hits_;
    return true;
  }

  void Insert(const Request& request, const Response& response,
              uint64_t generation) {
    if (!response.status.ok() || response.fell_back) return;
    if (generation != generation_) return;
    const Key key = MakeKey(request, generation);
    Shard& shard = ShardFor(key);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      if (shard.lru.size() >= per_shard_capacity_) {
        shard.map.erase(shard.lru.back().first);
        shard.lru.pop_back();
        ++evictions_;
        --entries_;
      }
      Value value;
      value.distance = response.distance;
      value.knn = response.knn;
      value.backend = response.backend;
      value.exact = response.exact;
      shard.lru.emplace_front(key, std::move(value));
      shard.map.emplace(key, shard.lru.begin());
      ++entries_;
    }
    ++insertions_;
  }

  void Invalidate() {
    ++generation_;
    for (Shard& shard : shards_) {
      entries_ -= shard.lru.size();
      shard.map.clear();
      shard.lru.clear();
    }
    ++invalidations_;
  }

  CacheStats Stats() const {
    CacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.insertions = insertions_;
    stats.evictions = evictions_;
    stats.invalidations = invalidations_;
    stats.generation = generation_;
    stats.entries = entries_;
    stats.capacity = capacity_;
    stats.shards = shards_.size();
    const double looked_up = static_cast<double>(hits_ + misses_);
    stats.hit_rate =
        looked_up > 0.0 ? static_cast<double>(hits_) / looked_up : 0.0;
    return stats;
  }

  uint64_t generation() const { return generation_; }

 private:
  struct Key {
    uint64_t generation = 0;
    uint32_t kind = 0;
    VertexId s = 0;
    uint64_t tk = 0;
    bool operator==(const Key& other) const = default;
  };
  static uint64_t Mix64(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  struct KeyHash {
    size_t operator()(const Key& key) const {
      uint64_t h =
          Mix64(key.generation ^ (static_cast<uint64_t>(key.kind) << 62));
      h = Mix64(h ^ (static_cast<uint64_t>(key.s) << 32) ^ key.tk);
      return static_cast<size_t>(h);
    }
  };
  struct Value {
    double distance = 0.0;
    std::vector<std::pair<VertexId, double>> knn;
    std::string backend;
    bool exact = false;
  };
  using LruList = std::list<std::pair<Key, Value>>;
  struct Shard {
    LruList lru;
    std::unordered_map<Key, LruList::iterator, KeyHash> map;
  };

  static Key MakeKey(const Request& request, uint64_t generation) {
    Key key;
    key.generation = generation;
    key.kind = static_cast<uint32_t>(request.kind);
    key.s = request.s;
    key.tk = request.kind == RequestKind::kDistance
                 ? static_cast<uint64_t>(request.t)
                 : static_cast<uint64_t>(request.k);
    return key;
  }
  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash()(key) & (shards_.size() - 1)];
  }

  size_t capacity_ = 0;
  size_t per_shard_capacity_ = 0;
  std::vector<Shard> shards_;
  uint64_t generation_ = 0;
  uint64_t hits_ = 0, misses_ = 0, insertions_ = 0, evictions_ = 0;
  uint64_t invalidations_ = 0;
  size_t entries_ = 0;
};

void ExpectSameStats(const CacheStats& got, const CacheStats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.insertions, want.insertions);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.invalidations, want.invalidations);
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_EQ(got.entries, want.entries);
  EXPECT_EQ(got.capacity, want.capacity);
  EXPECT_EQ(got.shards, want.shards);
  EXPECT_EQ(got.hit_rate, want.hit_rate);
}

// A key space small enough that batches repeat keys and shards overflow.
Request RandomRequest(Rng& rng) {
  const auto s = static_cast<VertexId>(rng.UniformIndex(3));
  if (rng.UniformIndex(3) == 0) return Knn(s, rng.UniformIndex(3));
  return Dist(s, static_cast<VertexId>(rng.UniformIndex(3)));
}

// Values differ per insert, so a refresh that overwrote the stored answer
// (instead of keeping it) would show; some responses fail or fell back.
Response RandomResponse(const Request& request, Rng& rng) {
  Response response;
  const size_t outcome = rng.UniformIndex(10);
  if (outcome == 0) {
    response.status = Status::DeadlineExceeded("late");
    return response;
  }
  response.fell_back = outcome == 1;
  response.distance = rng.UniformReal(0, 100);
  if (request.kind == RequestKind::kKnn) {
    for (size_t i = 0; i < request.k; ++i) {
      const auto v = static_cast<VertexId>(rng.UniformIndex(50));
      response.knn.emplace_back(v, rng.UniformReal(0, 100));
    }
  }
  response.backend = rng.UniformIndex(2) == 0 ? "rne" : "dijkstra";
  response.exact = rng.UniformIndex(2) == 0;
  return response;
}

// Runs `calls` random LookupBatch / InsertBatch / Invalidate calls against
// both caches and compares every answer and every Stats().
void RunDifferential(const ResultCacheOptions& options, uint64_t seed,
                     int calls) {
  ResultCache cache(options);
  ReferenceCache reference(options);
  Rng rng(seed);
  std::vector<Request> requests;
  std::vector<Response> responses;
  std::vector<Response> got;
  std::vector<Response> want;
  Response sentinel;
  sentinel.distance = -1.0;
  for (int call = 0; call < calls; ++call) {
    SCOPED_TRACE(testing::Message() << "call " << call);
    const size_t op = rng.UniformIndex(20);
    if (op == 0) {
      cache.Invalidate();
      reference.Invalidate();
      ExpectSameStats(cache.Stats(), reference.Stats());
      continue;
    }
    requests.resize(1 + rng.UniformIndex(8));
    for (Request& request : requests) request = RandomRequest(rng);
    if (op < 10) {
      got.assign(requests.size(), sentinel);
      want.assign(requests.size(), sentinel);
      size_t want_hits = 0;
      for (size_t i = 0; i < requests.size(); ++i) {
        if (reference.Lookup(requests[i], &want[i])) ++want_hits;
      }
      ASSERT_EQ(cache.LookupBatch(requests, got), want_hits);
      for (size_t i = 0; i < requests.size(); ++i) {
        ASSERT_EQ(got[i].cached, want[i].cached) << "request " << i;
        if (!want[i].cached) continue;
        EXPECT_TRUE(got[i].status.ok());
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].distance),
                  std::bit_cast<uint64_t>(want[i].distance));
        EXPECT_EQ(got[i].knn, want[i].knn);
        EXPECT_EQ(got[i].backend, want[i].backend);
        EXPECT_EQ(got[i].exact, want[i].exact);
        EXPECT_FALSE(got[i].fell_back);
      }
    } else {
      responses.clear();
      for (const Request& request : requests) {
        responses.push_back(RandomResponse(request, rng));
      }
      // Now and then an answer computed before the last Invalidate().
      uint64_t generation = cache.generation();
      if (generation > 0 && rng.UniformIndex(10) == 0) --generation;
      cache.InsertBatch(requests, responses, generation);
      for (size_t i = 0; i < requests.size(); ++i) {
        reference.Insert(requests[i], responses[i], generation);
      }
    }
    ExpectSameStats(cache.Stats(), reference.Stats());
    if (testing::Test::HasFailure()) return;
  }
  // The sequence exercised hits and evictions, not just misses.
  EXPECT_GT(reference.Stats().hits, 0u);
  EXPECT_GT(reference.Stats().evictions, 0u);
}

TEST(ResultCacheDifferentialTest, MatchesTheNodeBasedReferenceCache) {
  // Capacities 1, 3 and 7 over 1 and 4 shards: 6 configurations x 10k
  // calls.
  const size_t capacities[] = {1, 3, 7};
  for (int config = 0; config < 6; ++config) {
    SCOPED_TRACE(testing::Message() << "config " << config);
    ResultCacheOptions options;
    options.capacity = capacities[config % 3];
    options.num_shards = config < 3 ? 1 : 4;
    RunDifferential(options, 2024 + static_cast<uint64_t>(config), 10000);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(ResultCacheDifferentialTest, KnnSlotReusedForADistanceHoldsNoList) {
  // Capacity 1: the distance entry overwrites the slot the kNN list lived
  // in, and a hit on it must not carry the old list.
  ResultCacheOptions options;
  options.capacity = 1;
  options.num_shards = 1;
  ResultCache cache(options);
  Response knn = OkDistance(0.0);
  knn.knn = {{1, 0.5}, {2, 1.5}, {3, 2.5}};
  cache.Insert(Knn(1, 3), knn, cache.generation());
  cache.Insert(Dist(1, 2), OkDistance(9.0), cache.generation());
  Response out;
  out.knn = {{7, 7.0}};
  ASSERT_TRUE(cache.Lookup(Dist(1, 2), &out));
  EXPECT_EQ(out.distance, 9.0);
  EXPECT_TRUE(out.knn.empty());
  EXPECT_FALSE(cache.Lookup(Knn(1, 3), &out));
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

/// A learned-style backend: inexact distances and kNN lists, both cheap and
/// deterministic, so repeated passes can be compared exactly.
class LearnedStub : public QueryBackend {
 public:
  std::string Name() const override { return "learned"; }
  bool IsExact() const override { return false; }
  size_t NumVertices() const override { return 64; }
  size_t IndexBytes() const override { return 0; }
  double Distance(VertexId s, VertexId t) override { return 1.5 * s + t; }
  bool SupportsKnn() const override { return true; }
  std::vector<std::pair<VertexId, double>> Knn(VertexId s, size_t k) override {
    std::vector<std::pair<VertexId, double>> list;
    for (size_t j = 0; j < k; ++j) {
      list.emplace_back(static_cast<VertexId>((s + j) % 64), 0.5 * j);
    }
    return list;
  }
};

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

  static std::unique_ptr<QueryEngine> MakeLearnedEngine() {
    auto engine = std::make_unique<QueryEngine>(MakeOptions());
    engine->AddReadyBackend(std::make_unique<LearnedStub>());
    return engine;
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
  // The hot-swap contract: once a ModelManager publishes a new snapshot
  // and the publisher invalidates (as the RELOAD verb does), previously
  // cached answers are unreachable. Poison the cache with a deliberately
  // wrong distance, publish, and check the next answer comes from the
  // engine, not the poisoned entry.
  ResultCache cache;
  CachedEngine cached(&engine_, &cache);
  ModelManager manager;

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

  // A successful Load() publishes, and the invalidation after it must flush
  // the poisoned entry. The model file itself is irrelevant to the cache
  // seam; build the cheapest valid one.
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
  cache.Invalidate();
  std::filesystem::remove(path);

  ASSERT_TRUE(cached.QueryBatch({&probe, 1}, &out).ok());
  EXPECT_FALSE(out[0].cached) << "post-swap answer must bypass the cache";
  EXPECT_EQ(out[0].distance, truth);
  EXPECT_EQ(out[0].backend, "dijkstra");
  EXPECT_EQ(cache.Stats().invalidations, 2u);
}

TEST_F(CachedEngineTest, LearnedDistancesNeitherLookUpNorInsert) {
  // A learned distance costs less than the lookup that would save it, so a
  // learned-only distance batch leaves the cache untouched.
  const auto engine = MakeLearnedEngine();
  ResultCache cache;
  CachedEngine cached(engine.get(), &cache);
  std::vector<Request> batch;
  for (VertexId i = 0; i < 64; ++i) batch.push_back(Dist(i, 63 - i));

  for (int pass = 0; pass < 2; ++pass) {
    std::vector<Response> out;
    ASSERT_TRUE(cached.QueryBatch(batch, &out).ok());
    ASSERT_EQ(out.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(out[i].status.ok()) << i;
      EXPECT_FALSE(out[i].cached) << "pass " << pass << " request " << i;
      EXPECT_EQ(out[i].distance, 1.5 * batch[i].s + batch[i].t) << i;
      EXPECT_EQ(out[i].backend, "learned") << i;
    }
  }
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST_F(CachedEngineTest, MixedLearnedBatchCachesOnlyItsKnnAnswers) {
  // Learned distances and kNN lists interleaved: answers come back in
  // request order, and the second pass hits exactly the kNN requests.
  const auto engine = MakeLearnedEngine();
  ResultCache cache;
  CachedEngine cached(engine.get(), &cache);
  std::vector<Request> batch;
  size_t knn_requests = 0;
  for (VertexId i = 0; i < 24; ++i) {
    if (i % 3 == 1) {
      batch.push_back(Knn(i, 1 + i % 4));
      ++knn_requests;
    } else {
      batch.push_back(Dist(i, 2 * i));
    }
  }

  std::vector<Response> first, second;
  ASSERT_TRUE(cached.QueryBatch(batch, &first).ok());
  ASSERT_TRUE(cached.QueryBatch(batch, &second).ok());
  ASSERT_EQ(first.size(), batch.size());
  ASSERT_EQ(second.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    const bool knn = batch[i].kind == RequestKind::kKnn;
    ASSERT_TRUE(first[i].status.ok());
    ASSERT_TRUE(second[i].status.ok());
    EXPECT_FALSE(first[i].cached);
    EXPECT_EQ(second[i].cached, knn);
    if (knn) {
      ASSERT_EQ(first[i].knn.size(), batch[i].k);
      EXPECT_EQ(first[i].knn.front().first, batch[i].s);
    } else {
      EXPECT_EQ(first[i].distance, 1.5 * batch[i].s + batch[i].t);
      EXPECT_TRUE(second[i].knn.empty());
    }
    EXPECT_EQ(first[i].distance, second[i].distance);
    EXPECT_EQ(first[i].knn, second[i].knn);
    EXPECT_EQ(first[i].backend, second[i].backend);
  }
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, knn_requests);
  EXPECT_EQ(stats.misses, knn_requests);
  EXPECT_EQ(stats.insertions, knn_requests);
  EXPECT_EQ(stats.entries, knn_requests);
}

TEST_F(CachedEngineTest, ExactChainCachesItsFirstBatch) {
  // Before any distance answer the engine cannot say the chain is exact,
  // so the first batch is not looked up; its exact answers must still be
  // inserted, or a cold server would lose them.
  ASSERT_FALSE(engine_.distances_exact());
  ResultCache cache;
  CachedEngine cached(&engine_, &cache);
  const std::vector<Request> batch = {Dist(0, 5), Dist(1, 7), Dist(2, 30)};

  std::vector<Response> first;
  ASSERT_TRUE(cached.QueryBatch(batch, &first).ok());
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, batch.size());
  EXPECT_EQ(stats.entries, batch.size());
  EXPECT_TRUE(engine_.distances_exact());

  std::vector<Response> second;
  ASSERT_TRUE(cached.QueryBatch(batch, &second).ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_FALSE(first[i].cached) << i;
    EXPECT_TRUE(first[i].exact) << i;
    EXPECT_TRUE(second[i].cached) << i;
    EXPECT_EQ(first[i].distance, second[i].distance) << i;
  }
  stats = cache.Stats();
  EXPECT_EQ(stats.hits, batch.size());
  EXPECT_EQ(stats.misses, 0u);
}

TEST(ResultCacheTest, LazilyGrownSlotsRefillAfterInvalidate) {
  // Slots are constructed as entries arrive; after Invalidate() the grown
  // slots are reused before any new one, and a shard never holds more
  // than its share of the capacity.
  ResultCacheOptions options;
  options.capacity = 64;
  options.num_shards = 4;
  ResultCache cache(options);
  const auto fill = [&cache](VertexId base, VertexId count) {
    for (VertexId i = 0; i < count; ++i) {
      cache.Insert(Dist(base + i, 1), OkDistance(base + i),
                   cache.generation());
    }
  };
  const auto expect_hits = [&cache](VertexId base, VertexId count) {
    for (VertexId i = 0; i < count; ++i) {
      Response out;
      ASSERT_TRUE(cache.Lookup(Dist(base + i, 1), &out)) << base + i;
      EXPECT_EQ(out.distance, static_cast<double>(base + i));
    }
  };

  fill(0, 5);
  EXPECT_EQ(cache.Stats().entries, 5u);
  expect_hits(0, 5);

  fill(100, 300);  // overflows every shard
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, options.capacity);
  EXPECT_GT(stats.evictions, 0u);

  cache.Invalidate();
  EXPECT_EQ(cache.Stats().entries, 0u);
  Response out;
  EXPECT_FALSE(cache.Lookup(Dist(399, 1), &out));

  fill(1000, 7);
  EXPECT_EQ(cache.Stats().entries, 7u);
  expect_hits(1000, 7);
  fill(2000, 300);
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, options.capacity);
  // The most recent insert of each shard is always resident.
  expect_hits(2299, 1);
  for (VertexId i = 0; i < 7; ++i) {
    EXPECT_FALSE(cache.Lookup(Dist(1000 + i, 1), &out)) << i;
  }
}

}  // namespace
}  // namespace rne::serve
