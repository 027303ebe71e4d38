// Hot model swap: ModelManager verify/load/publish pipeline, rollback on a
// corrupt or incompatible replacement, the unpublished managed backend
// falling down the engine chain, and the headline invariant — concurrent
// queries through a swapping engine never observe a failed response.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "algo/dijkstra.h"
#include "core/rne.h"
#include "graph/generators.h"
#include "serve/backend.h"
#include "serve/model_manager.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "util/fault_injection.h"
#include "util/serialize.h"

namespace rne::serve {
namespace {

Graph SmallNetwork(uint32_t rows = 8, uint32_t cols = 8) {
  RoadNetworkConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.seed = 42;
  return MakeRoadNetwork(cfg);
}

/// Flat (non-hierarchical) build: seconds of training are irrelevant here —
/// the swap machinery only cares that the file is a valid RNE model.
Rne TinyModel(const Graph& g) {
  RneConfig config;
  config.dim = 16;
  config.hierarchical = false;
  config.fine_tune = false;
  config.train.vertex_samples = 5000;
  config.train.vertex_epochs = 2;
  return Rne::Build(g, config);
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Builds and saves a tiny model for `g`, returning the file path.
std::string SaveTinyModel(const Graph& g, const std::string& name) {
  const std::string path = TempPath(name);
  const Rne model = TinyModel(g);
  EXPECT_TRUE(model.Save(path).ok());
  return path;
}

TEST(VerifyIndexFileTest, AcceptsValidFileAndChecksMagic) {
  const Graph g = SmallNetwork();
  const std::string path = SaveTinyModel(g, "rne_mm_verify.bin");
  const auto info = VerifyIndexFile(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().index_magic, kRneMagic);
  EXPECT_TRUE(VerifyIndexFile(path, kRneMagic).ok());
  // Same file, wrong expected kind: structural pass, magic gate fails.
  const auto wrong = VerifyIndexFile(path, kQuantMagic);
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(VerifyIndexFile("/nonexistent/model.rne").ok());
  std::filesystem::remove(path);
}

TEST(VerifyIndexFileTest, RetiredIndexKindIsRejectedCleanly) {
  // A well-formed envelope of the retired CH kind ("RNCH"): every checksum
  // holds, so only the kind gate can reject it.
  const std::string path = TempPath("rne_mm_retired_ch.bin");
  {
    BinaryWriter w(path, 0x524e4348);
    w.WritePod<uint64_t>(7);
    ASSERT_TRUE(w.Finish().ok());
  }
  ASSERT_TRUE(InspectEnvelope(path).ok());
  for (const uint32_t expected : {0u, kRneMagic}) {
    const auto info = VerifyIndexFile(path, expected);
    EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument)
        << info.status().ToString();
    EXPECT_NE(info.status().message().find("0x524e4348"), std::string::npos)
        << info.status().ToString();
  }
  ModelManager manager;
  EXPECT_EQ(manager.Load(path).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Current(), nullptr);

  // `rne_tool verify` runs the same check and exits 1 with the status, not
  // a signal.
  const std::string out = TempPath("rne_mm_retired_ch.out");
  const std::string cmd = std::string(RNE_TOOL_PATH) + " verify " + path +
                          " > " + out + " 2>&1";
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc)) << cmd;
  EXPECT_EQ(WEXITSTATUS(rc), 1) << cmd;
  std::ifstream in(out);
  const std::string printed((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_NE(printed.find("INVALID_ARGUMENT"), std::string::npos) << printed;
  std::filesystem::remove(path);
  std::filesystem::remove(out);
}

TEST(ModelManagerTest, LoadPublishesSnapshotAndBumpsVersion) {
  const Graph g = SmallNetwork();
  const std::string v1 = SaveTinyModel(g, "rne_mm_v1.bin");
  const std::string v2 = SaveTinyModel(g, "rne_mm_v2.bin");

  ModelManager manager;
  EXPECT_EQ(manager.version(), 0u);
  EXPECT_EQ(manager.Current(), nullptr);
  EXPECT_EQ(manager.Reload().code(), StatusCode::kFailedPrecondition)
      << "Reload before any Load has no path to retry";

  ASSERT_TRUE(manager.Load(v1).ok());
  const auto first = manager.Current();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->path, v1);
  EXPECT_EQ(first->model->NumVertices(), g.NumVertices());
  ASSERT_NE(first->index, nullptr);

  ASSERT_TRUE(manager.Load(v2).ok());
  EXPECT_EQ(manager.version(), 2u);
  // The old snapshot stays valid for readers that still hold it.
  EXPECT_EQ(first->version, 1u);
  EXPECT_GT(first->model->Query(0, 5), 0.0);

  ASSERT_TRUE(manager.Reload().ok());  // re-runs the last path
  EXPECT_EQ(manager.version(), 3u);
  EXPECT_EQ(manager.Current()->path, v2);

  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

TEST(ModelManagerTest, CorruptReplacementIsRejectedAndOldKeepsServing) {
  const Graph g = SmallNetwork();
  const std::string good = SaveTinyModel(g, "rne_mm_good.bin");
  const std::string bad = TempPath("rne_mm_corrupt.bin");
  const uint64_t size = std::filesystem::file_size(good);
  ASSERT_TRUE(fault::FlipBitCopy(good, bad, size / 2, 3).ok());

  ModelManager manager;
  ASSERT_TRUE(manager.Load(good).ok());
  const auto before = manager.Current();

  EXPECT_FALSE(manager.Load(bad).ok());
  // Rollback by default: publish never happened, the old snapshot serves.
  EXPECT_EQ(manager.version(), 1u);
  EXPECT_EQ(manager.Current(), before);
  EXPECT_EQ(manager.Current()->path, good);

  // A truncated file is caught by the structural verify stage too.
  const std::string cut = TempPath("rne_mm_truncated.bin");
  ASSERT_TRUE(fault::TruncateCopy(good, cut, size / 3).ok());
  EXPECT_FALSE(manager.Load(cut).ok());
  EXPECT_EQ(manager.version(), 1u);

  std::filesystem::remove(good);
  std::filesystem::remove(bad);
  std::filesystem::remove(cut);
}

TEST(ModelManagerTest, VertexCountMismatchIsRejected) {
  const Graph g = SmallNetwork(8, 8);
  const Graph smaller = SmallNetwork(6, 6);
  const std::string v1 = SaveTinyModel(g, "rne_mm_64.bin");
  const std::string v2 = SaveTinyModel(smaller, "rne_mm_36.bin");

  ModelManager manager;
  ASSERT_TRUE(manager.Load(v1).ok());
  const Status mismatch = manager.Load(v2);
  EXPECT_EQ(mismatch.code(), StatusCode::kFailedPrecondition)
      << mismatch.ToString();
  EXPECT_EQ(manager.version(), 1u);
  EXPECT_EQ(manager.Current()->model->NumVertices(), g.NumVertices());

  // Opting out of the gate admits the differently-sized replacement.
  ModelManager::Options options;
  options.require_same_vertex_count = false;
  ModelManager permissive(options);
  ASSERT_TRUE(permissive.Load(v1).ok());
  EXPECT_TRUE(permissive.Load(v2).ok());
  EXPECT_EQ(permissive.Current()->model->NumVertices(),
            smaller.NumVertices());

  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

TEST(ModelManagerTest, UnpublishedManagedBackendFallsDownChain) {
  const Graph g = SmallNetwork();
  ModelManager manager;  // nothing loaded: the managed slot cannot serve
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(options);
  engine.AddReadyBackend(manager.MakeManagedBackend());
  BackendContext ctx;
  ctx.graph = &g;
  engine.AddBackend("dijkstra", ctx);
  ASSERT_TRUE(engine.WaitUntilLoaded().ok());

  Request request;
  request.s = 1;
  request.t = 40;
  const Response response = engine.Query(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.backend, "dijkstra");
  EXPECT_TRUE(response.fell_back);
  DijkstraSearch reference(g);
  EXPECT_NEAR(response.distance, reference.Distance(1, 40), 1e-6);
  EXPECT_GE(engine.Metrics().retries, 1u);
}

// A RELOAD of an mmap-served model must swap rows atomically: the new
// snapshot serves the new file's bytes, the old snapshot (pinned by its
// mapping to the replaced inode) keeps serving the old bytes, and a result
// cache in front of the engine never hands out a pre-swap distance.
TEST(ModelManagerTest, MmapReloadNeverServesStaleRows) {
  const Graph g = SmallNetwork();
  const std::string path = TempPath("rne_mm_mmap_swap.bin");
  const Rne model_a = TinyModel(g);
  ASSERT_TRUE(model_a.Save(path).ok());

  ModelManager::Options options;
  options.load = LoadMode::kMmapCold;  // worst case: deferred CRCs
  ModelManager manager(options);
  ASSERT_TRUE(manager.Load(path).ok());
  const auto snapshot_a = manager.Current();
  ASSERT_TRUE(snapshot_a->model->IsMapped());

  // A differently-trained replacement over the SAME path (atomic rename).
  RneConfig other_config;
  other_config.dim = 16;
  other_config.hierarchical = false;
  other_config.fine_tune = false;
  other_config.train.vertex_samples = 9000;
  other_config.train.vertex_epochs = 3;
  const Rne model_b = Rne::Build(g, other_config);
  ASSERT_TRUE(model_b.Save(path).ok());

  // Find a pair the two models genuinely disagree on, so "stale" and
  // "fresh" are distinguishable bit patterns.
  VertexId ds = 0, dt = 0;
  for (VertexId s = 0; s < g.NumVertices() && ds == dt; ++s) {
    for (VertexId t = s + 1; t < g.NumVertices(); ++t) {
      const double a = model_a.Query(s, t);
      const double b = model_b.Query(s, t);
      if (std::memcmp(&a, &b, sizeof(double)) != 0) {
        ds = s;
        dt = t;
        break;
      }
    }
  }
  ASSERT_NE(ds, dt) << "models are identical; test cannot discriminate";

  ASSERT_TRUE(manager.Reload().ok());
  const auto snapshot_b = manager.Current();
  ASSERT_NE(snapshot_a, snapshot_b);

  // New snapshot == freshly trained model, old snapshot == old model, both
  // to the bit; the old mapping survives the rename that replaced its file.
  const double want_a = model_a.Query(ds, dt);
  const double want_b = model_b.Query(ds, dt);
  const double got_a = snapshot_a->model->Query(ds, dt);
  const double got_b = snapshot_b->model->Query(ds, dt);
  EXPECT_EQ(std::memcmp(&want_a, &got_a, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&want_b, &got_b, sizeof(double)), 0);

  std::filesystem::remove(path);
}

// CachedEngine regression for the same scenario: a cache hit recorded
// before an mmap-model RELOAD must not outlive the swap. The requests are
// kNN ones, the learned answers the cache keeps (a learned distance costs
// less than a lookup and is never cached). The cache is invalidated after
// the swap, as the RELOAD verb does, so post-swap queries serve the new
// model's lists, bit-identical to a direct query, never the stale ones.
TEST(ModelManagerTest, ReloadOfMmapModelInvalidatesResultCache) {
  const Graph g = SmallNetwork();
  const std::string path = TempPath("rne_mm_cache_swap.bin");
  const Rne model_a = TinyModel(g);
  ASSERT_TRUE(model_a.Save(path).ok());

  ModelManager::Options manager_options;
  manager_options.load = LoadMode::kMmap;
  ModelManager manager(manager_options);
  ASSERT_TRUE(manager.Load(path).ok());

  EngineOptions engine_options;
  engine_options.num_threads = 1;
  QueryEngine engine(engine_options);
  engine.AddReadyBackend(manager.MakeManagedBackend());
  ResultCache cache;
  CachedEngine cached(&engine, &cache);
  // Uncached reference: answers from whichever snapshot is published.
  const auto direct = manager.MakeManagedBackend();

  RneConfig other_config;
  other_config.dim = 16;
  other_config.hierarchical = false;
  other_config.fine_tune = false;
  other_config.train.vertex_samples = 9000;
  other_config.train.vertex_epochs = 3;
  const Rne model_b = Rne::Build(g, other_config);

  std::vector<Request> requests;
  for (VertexId s = 0; s < 12; ++s) {
    Request request;
    request.kind = RequestKind::kKnn;
    request.s = s;
    request.k = 4;
    requests.push_back(request);
  }
  const auto same_bits = [](const std::vector<std::pair<VertexId, double>>& a,
                            const std::vector<std::pair<VertexId, double>>& b) {
    if (a.size() != b.size()) return false;
    for (size_t j = 0; j < a.size(); ++j) {
      if (a[j].first != b[j].first ||
          std::memcmp(&a[j].second, &b[j].second, sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  };
  std::vector<Response> before, warm, after;
  ASSERT_TRUE(cached.QueryBatch(requests, &before).ok());
  ASSERT_TRUE(cached.QueryBatch(requests, &warm).ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(before[i].status.ok());
    EXPECT_TRUE(warm[i].cached) << i;  // the hits the swap must invalidate
    EXPECT_TRUE(same_bits(before[i].knn, direct->Knn(requests[i].s, 4))) << i;
  }

  ASSERT_TRUE(model_b.Save(path).ok());
  ASSERT_TRUE(manager.Reload().ok());
  cache.Invalidate();
  ASSERT_TRUE(cached.QueryBatch(requests, &after).ok());
  size_t changed = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(after[i].status.ok());
    EXPECT_FALSE(after[i].cached) << "request " << i
                                  << " served a pre-swap cache entry";
    EXPECT_TRUE(same_bits(after[i].knn, direct->Knn(requests[i].s, 4)))
        << "request " << i << " served a stale list after RELOAD";
    changed += same_bits(after[i].knn, before[i].knn) ? 0 : 1;
  }
  EXPECT_GT(changed, 0u) << "models agree; the test cannot discriminate";

  std::filesystem::remove(path);
}

// The headline swap invariant: with clients hammering the engine, repeated
// RELOADs (publish = one atomic pointer swap) never fail a single query —
// each in-flight query keeps the snapshot generation it started with.
TEST(ModelManagerTest, HotSwapUnderConcurrentQueriesNeverFailsAQuery) {
  const Graph g = SmallNetwork();
  const std::string v1 = SaveTinyModel(g, "rne_mm_swap_a.bin");
  const std::string v2 = SaveTinyModel(g, "rne_mm_swap_b.bin");

  ModelManager::Options manager_options;
  manager_options.num_workers = 2;
  ModelManager manager(manager_options);
  ASSERT_TRUE(manager.Load(v1).ok());

  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(options);
  engine.AddReadyBackend(manager.MakeManagedBackend());

  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      size_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        Request request;
        request.s = static_cast<VertexId>((c * 13 + i) % g.NumVertices());
        request.t = static_cast<VertexId>((i * 7 + 3) % g.NumVertices());
        const Response response = engine.Query(request);
        if (!response.status.ok() || response.backend != "rne") {
          failures.fetch_add(1);
        }
        answered.fetch_add(1);
        ++i;
      }
    });
  }
  // Ten swaps while the clients run; every Load publishes a new generation.
  // Each swap waits for fresh query traffic first so publishes genuinely
  // interleave with serving (a tiny model loads faster than one query).
  for (int swap = 0; swap < 10; ++swap) {
    const size_t progress = answered.load() + 20;
    while (answered.load() < progress) std::this_thread::yield();
    ASSERT_TRUE(manager.Load(swap % 2 == 0 ? v2 : v1).ok()) << swap;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(manager.version(), 11u);
  const MetricsSnapshot metrics = engine.Metrics();
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_EQ(metrics.served, answered.load());

  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

// With require_same_vertex_count off, a RELOAD may shrink the id space
// under in-flight batches. A chunk pins one snapshot and range-checks ids
// against it, so an id valid only in the larger model is either answered
// by the larger model or rejected InvalidArgument — never read past the
// smaller model's rows (which the ASan leg would report).
TEST(ModelManagerTest, ShrinkingReloadNeverReadsOutOfRange) {
  const Graph big = SmallNetwork(8, 8);
  const Graph small = SmallNetwork(6, 6);
  const std::string large_path = SaveTinyModel(big, "rne_mm_shrink_64.bin");
  const std::string small_path = SaveTinyModel(small, "rne_mm_shrink_36.bin");

  ModelManager::Options manager_options;
  manager_options.require_same_vertex_count = false;
  ModelManager manager(manager_options);
  ASSERT_TRUE(manager.Load(large_path).ok());
  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(options);
  engine.AddReadyBackend(manager.MakeManagedBackend());

  const size_t lo = small.NumVertices();
  const size_t hi = big.NumVertices();
  std::atomic<bool> done{false};
  std::atomic<size_t> unexpected{0};
  std::atomic<size_t> answered{0};
  std::atomic<size_t> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      std::vector<Request> batch(16);
      std::vector<Response> responses;
      for (size_t round = 0; !done.load(std::memory_order_acquire); ++round) {
        for (size_t i = 0; i < batch.size(); ++i) {
          batch[i].s = static_cast<VertexId>(lo + (c + round + i) % (hi - lo));
          batch[i].t = static_cast<VertexId>(lo + (round * 7 + i) % (hi - lo));
        }
        if (!engine.QueryBatch(batch, &responses).ok()) {
          unexpected.fetch_add(1);
          continue;
        }
        for (const Response& response : responses) {
          if (response.status.ok() && std::isfinite(response.distance)) {
            answered.fetch_add(1);
          } else if (response.status.code() ==
                     StatusCode::kInvalidArgument) {
            rejected.fetch_add(1);
          } else {
            unexpected.fetch_add(1);
          }
        }
      }
    });
  }
  // Each swap waits for more requests than two batches in flight can hold,
  // so every phase serves some batches from the model it just published.
  for (int swap = 0; swap < 20; ++swap) {
    const size_t progress = answered.load() + rejected.load() + 64;
    while (answered.load() + rejected.load() < progress) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(manager.Load(swap % 2 == 0 ? small_path : large_path).ok())
        << swap;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(rejected.load(), 0u);
  const MetricsSnapshot metrics = engine.Metrics();
  EXPECT_EQ(metrics.served, answered.load());
  EXPECT_EQ(metrics.failed, rejected.load());

  std::filesystem::remove(large_path);
  std::filesystem::remove(small_path);
}

}  // namespace
}  // namespace rne::serve
