// Serving subsystem: batched correctness vs exact Dijkstra, the built-in
// backends, load-failure and dispatch-failure fallback down the chain, the
// engine deadline's fast fail, metrics accounting, and a multi-threaded
// hammer over a shared engine (the test tier-1 CI also runs under TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "algo/dijkstra.h"
#include "graph/generators.h"
#include "serve/backend.h"
#include "serve/query_engine.h"
#include "util/rng.h"

namespace rne::serve {
namespace {

Graph SmallNetwork() {
  RoadNetworkConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.seed = 42;
  return MakeRoadNetwork(cfg);
}

std::vector<Request> RandomDistanceRequests(const Graph& g, size_t n,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> out(n);
  for (auto& r : out) {
    r.kind = RequestKind::kDistance;
    r.s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    r.t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
  }
  return out;
}

/// Controllable stub: approximate answers (kNN answers are just the
/// source), optional per-call block, and a name distinct from the
/// built-ins.
class StubBackend : public QueryBackend {
 public:
  std::string Name() const override { return "stub"; }
  bool IsExact() const override { return false; }
  size_t NumVertices() const override { return num_vertices_; }
  size_t IndexBytes() const override { return 0; }
  double Distance(VertexId s, VertexId t) override {
    calls_.fetch_add(1);
    if (hold_.valid()) hold_.wait();
    return static_cast<double>(s) + static_cast<double>(t);
  }
  bool SupportsKnn() const override { return true; }
  std::vector<std::pair<VertexId, double>> Knn(VertexId s,
                                               size_t /*k*/) override {
    calls_.fetch_add(1);
    if (hold_.valid()) hold_.wait();
    return {{s, 0.0}};
  }

  size_t num_vertices_ = 144;
  std::atomic<size_t> calls_{0};
  /// When valid, every Distance() call blocks until the future is ready.
  std::shared_future<void> hold_;
};

TEST(BackendRegistryTest, BuiltinsAreRegistered) {
  EXPECT_EQ(RegisteredBackendNames(),
            (std::vector<std::string>{"dijkstra", "gtree", "h2h", "rne",
                                      "rne-quantized"}));
  BackendContext ctx;
  EXPECT_EQ(MakeBackend("no-such-backend", ctx).status().code(),
            StatusCode::kNotFound);
  // The CH and ALT serving adapters are deleted: unknown names, even with
  // a graph to build from.
  const Graph g = SmallNetwork();
  BackendContext with_graph;
  with_graph.graph = &g;
  for (const char* retired : {"ch", "alt"}) {
    EXPECT_EQ(MakeBackend(retired, with_graph).status().code(),
              StatusCode::kNotFound)
        << retired;
  }
  // Graph-built backends refuse a context without a graph.
  EXPECT_EQ(MakeBackend("dijkstra", ctx).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BackendRegistryTest, GraphBackendsAgreeWithDijkstra) {
  const Graph g = SmallNetwork();
  BackendContext ctx;
  ctx.graph = &g;
  ctx.num_workers = 2;
  DijkstraSearch reference(g);
  for (const char* name : {"dijkstra", "h2h", "gtree"}) {
    auto backend = MakeBackend(name, ctx);
    ASSERT_TRUE(backend.ok()) << name;
    EXPECT_TRUE(backend.value()->IsExact()) << name;
    Rng rng(5);
    for (int i = 0; i < 25; ++i) {
      const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
      const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
      EXPECT_NEAR(backend.value()->Distance(s, t), reference.Distance(s, t),
                  1e-6)
          << name;
    }
  }
}

// The h2h backend is a lock-free shared read: four threads querying one
// instance at once must each get the answers a serial run gives.
TEST(BackendRegistryTest, H2hConcurrentDistancesMatchSerial) {
  const Graph g = SmallNetwork();
  BackendContext ctx;
  ctx.graph = &g;
  auto made = MakeBackend("h2h", ctx);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  QueryBackend& backend = *made.value();
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 2000;
  const auto requests =
      RandomDistanceRequests(g, kThreads * kPerThread, /*seed=*/61);
  std::vector<double> serial(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    serial[i] = backend.Distance(requests[i].s, requests[i].t);
  }
  std::vector<double> concurrent(requests.size());
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Interleaved slices, so every thread walks the whole id range.
      for (size_t i = w; i < requests.size(); i += kThreads) {
        concurrent[i] = backend.Distance(requests[i].s, requests[i].t);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(concurrent[i], serial[i]) << i;
  }
}

TEST(QueryEngineTest, BatchedDistancesMatchExactDijkstra) {
  const Graph g = SmallNetwork();
  EngineOptions options;
  options.num_threads = 4;
  QueryEngine engine(options);
  BackendContext ctx;
  ctx.graph = &g;
  engine.AddBackend("dijkstra", ctx);
  ASSERT_TRUE(engine.WaitUntilLoaded().ok());

  const auto requests = RandomDistanceRequests(g, 200, 7);
  std::vector<Response> responses;
  ASSERT_TRUE(engine.QueryBatch(requests, &responses).ok());
  ASSERT_EQ(responses.size(), requests.size());
  DijkstraSearch reference(g);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    EXPECT_NEAR(responses[i].distance,
                reference.Distance(requests[i].s, requests[i].t), 1e-6);
    EXPECT_TRUE(responses[i].exact);
    EXPECT_FALSE(responses[i].fell_back);
    EXPECT_EQ(responses[i].backend, "dijkstra");
  }
  const MetricsSnapshot metrics = engine.Metrics();
  EXPECT_EQ(metrics.served, requests.size());
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_GT(metrics.p99_ns, 0.0);
  EXPECT_GE(metrics.p99_ns, metrics.p50_ns);
}

TEST(QueryEngineTest, KnnRoutesToCapableBackendAndMatchesExact) {
  const Graph g = SmallNetwork();
  QueryEngine engine;
  BackendContext ctx;
  ctx.graph = &g;
  engine.AddBackend("dijkstra", ctx);
  ASSERT_TRUE(engine.WaitUntilLoaded().ok());

  Request request;
  request.kind = RequestKind::kKnn;
  request.s = 17;
  request.k = 5;
  const Response response = engine.Query(request);
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.knn.size(), 5u);
  DijkstraSearch reference(g);
  const auto& dist = reference.AllDistances(17);
  double prev = -1.0;
  for (const auto& [v, d] : response.knn) {
    EXPECT_NEAR(d, dist[v], 1e-6);
    EXPECT_GE(d, prev);
    prev = d;
  }
  EXPECT_NEAR(response.knn[0].second, 0.0, 1e-12);  // s itself
}

TEST(QueryEngineTest, InvalidVertexIdFailsPerRequestNotPerBatch) {
  const Graph g = SmallNetwork();
  QueryEngine engine;
  BackendContext ctx;
  ctx.graph = &g;
  engine.AddBackend("dijkstra", ctx);
  ASSERT_TRUE(engine.WaitUntilLoaded().ok());

  std::vector<Request> requests(2);
  requests[0].s = 0;
  requests[0].t = 1;
  requests[1].s = static_cast<VertexId>(g.NumVertices());  // out of range
  requests[1].t = 0;
  std::vector<Response> responses;
  ASSERT_TRUE(engine.QueryBatch(requests, &responses).ok());
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[1].status.code(), StatusCode::kInvalidArgument);
  const MetricsSnapshot metrics = engine.Metrics();
  EXPECT_EQ(metrics.served, 1u);
  EXPECT_EQ(metrics.failed, 1u);
}

// Regression: a backend throwing a non-std::exception used to escape
// ExecuteChunk's catch(const std::exception&), unwind through the pool's
// TaskGroup and rethrow from QueryBatch. The throw must become a
// per-request error Response.
TEST(QueryEngineTest, NonStandardExceptionBecomesPerRequestError) {
  struct Boom {};  // deliberately not derived from std::exception
  class ThrowingBackend : public StubBackend {
   public:
    std::string Name() const override { return "throwing"; }
    double Distance(VertexId, VertexId) override { throw Boom(); }
  };
  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(options);
  engine.AddReadyBackend(std::make_unique<ThrowingBackend>());

  std::vector<Request> requests(4);
  std::vector<Response> responses;
  ASSERT_TRUE(engine.QueryBatch(requests, &responses).ok());
  ASSERT_EQ(responses.size(), requests.size());
  for (const Response& r : responses) {
    EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition)
        << r.status.ToString();
  }
  EXPECT_EQ(engine.Metrics().failed, requests.size());
}

TEST(QueryEngineTest, LoadFailureFallsBackToExactBackend) {
  const Graph g = SmallNetwork();
  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(options);
  BackendContext ctx;
  ctx.graph = &g;
  ctx.model_path = "/nonexistent/model.rne";  // primary load will fail
  engine.AddBackend("rne", ctx);
  engine.AddBackend("dijkstra", ctx);
  EXPECT_FALSE(engine.WaitUntilLoaded().ok());  // reports the load error

  const auto requests = RandomDistanceRequests(g, 20, 11);
  std::vector<Response> responses;
  ASSERT_TRUE(engine.QueryBatch(requests, &responses).ok());
  DijkstraSearch reference(g);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok());
    EXPECT_EQ(responses[i].backend, "dijkstra");
    EXPECT_TRUE(responses[i].fell_back);
    EXPECT_NEAR(responses[i].distance,
                reference.Distance(requests[i].s, requests[i].t), 1e-6);
  }
  const MetricsSnapshot metrics = engine.Metrics();
  EXPECT_EQ(metrics.fell_back_load, requests.size());
  EXPECT_EQ(metrics.served, requests.size());
}

TEST(QueryEngineTest, ConcurrentBatchHammerServesEverything) {
  const Graph g = SmallNetwork();
  EngineOptions options;
  options.num_threads = 4;
  options.batch_chunk = 8;
  QueryEngine engine(options);
  BackendContext ctx;
  ctx.graph = &g;
  engine.AddBackend("dijkstra", ctx);
  ASSERT_TRUE(engine.WaitUntilLoaded().ok());

  constexpr size_t kClients = 8;
  constexpr size_t kBatches = 25;
  constexpr size_t kBatchSize = 32;
  std::atomic<size_t> ok_responses{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      DijkstraSearch reference(g);
      for (size_t b = 0; b < kBatches; ++b) {
        const auto requests =
            RandomDistanceRequests(g, kBatchSize, 100 * c + b);
        std::vector<Response> responses;
        EXPECT_TRUE(engine.QueryBatch(requests, &responses).ok());
        for (size_t i = 0; i < requests.size(); ++i) {
          EXPECT_TRUE(responses[i].status.ok());
          EXPECT_NEAR(responses[i].distance,
                      reference.Distance(requests[i].s, requests[i].t),
                      1e-6);
          ok_responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_responses.load(), kClients * kBatches * kBatchSize);
  const MetricsSnapshot metrics = engine.Metrics();
  EXPECT_EQ(metrics.served, kClients * kBatches * kBatchSize);
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_GT(metrics.qps, 0.0);
}

// A request that no thread reaches before the engine deadline (20 ms) of
// its batch must fail fast without ever invoking a backend. The caller
// claims the first block and its first request blocks for 60 ms; the only
// pool worker is held by an unrelated task over the same time, so the
// batch's helper cannot claim the second block before the deadline. Once
// released, the rest of the first block and all of the second fail fast,
// whichever thread claims the second block.
TEST(QueryEngineTest, DeadlineExpiredWhileQueuedFailsFastWithoutDispatch) {
  // Only a batch with more searches than batch_chunk fans out (the stub's
  // distance answers are not searches), so the batch is kNN requests.
  EngineOptions options;
  options.num_threads = 1;
  options.batch_chunk = 1;
  options.default_deadline = std::chrono::milliseconds(20);
  QueryEngine engine(options);
  auto stub = std::make_unique<StubBackend>();
  StubBackend* raw = stub.get();
  std::promise<void> release;
  raw->hold_ = release.get_future().share();
  engine.AddReadyBackend(std::move(stub));
  engine.pool().Submit([hold = raw->hold_] { hold.wait(); });

  constexpr size_t kBatch = 2 * QueryEngine::kClaimBlock;
  std::vector<Request> batch(kBatch);
  for (Request& request : batch) {
    request.kind = RequestKind::kKnn;
    request.k = 1;
  }
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    release.set_value();
  });
  std::vector<Response> responses;
  ASSERT_TRUE(engine.QueryBatch(batch, &responses).ok());
  releaser.join();
  engine.pool().Wait();

  EXPECT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  for (size_t i = 1; i < kBatch; ++i) {
    EXPECT_EQ(responses[i].status.code(), StatusCode::kDeadlineExceeded)
        << i;
  }
  EXPECT_EQ(raw->calls_.load(), 1u) << "expired requests must not dispatch";
  const MetricsSnapshot metrics = engine.Metrics();
  EXPECT_EQ(metrics.fast_fails, kBatch - 1);
  EXPECT_EQ(metrics.failed, kBatch - 1);
  EXPECT_EQ(metrics.served, 1u);  // the caller's first request
}

/// A stub that counts the calls made on the caller's thread and on pool
/// workers, and throws from every call while `down` is set.
class WhereBackend : public StubBackend {
 public:
  explicit WhereBackend(std::string name = "stub", bool exact = false)
      : name_(std::move(name)), exact_(exact) {}
  std::string Name() const override { return name_; }
  bool IsExact() const override { return exact_; }
  double Distance(VertexId s, VertexId t) override {
    Count();
    return StubBackend::Distance(s, t);
  }
  std::vector<std::pair<VertexId, double>> Knn(VertexId s,
                                               size_t k) override {
    Count();
    return StubBackend::Knn(s, k);
  }
  /// (calls on the caller's thread, calls on workers)
  std::pair<size_t, size_t> Where() const {
    return {on_caller.load(), on_worker.load()};
  }

  std::atomic<size_t> on_caller{0};
  std::atomic<size_t> on_worker{0};
  std::atomic<bool> down{false};
  /// A call on the caller's thread waits (up to 10 s) until the workers
  /// have made at least this many calls, so a fanned batch's helpers are
  /// sure to claim a block before the caller claims them all.
  std::atomic<size_t> caller_awaits_worker_calls{0};

 private:
  void Count() {
    const size_t w = ThreadPool::CurrentWorkerIndex();
    if (w == ThreadPool::kNotAWorker) {
      on_caller.fetch_add(1);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (on_worker.load() < caller_awaits_worker_calls.load() &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    } else {
      on_worker.fetch_add(1);
    }
    if (down.load()) throw std::runtime_error("backend down");
  }

  const std::string name_;
  const bool exact_;
};

TEST(QueryEngineTest, OneChunkBatchRunsOnTheCallingThread) {
  // A learned distance batch of any size, and a batch of at most
  // batch_chunk kNN requests, skip the pool: the backend is called from the
  // caller's thread. A batch with batch_chunk + 1 kNN requests fans out:
  // the caller claims the first block before any helper exists, so it
  // serves at least that block, and the workers may claim the rest. Every
  // counter must come out exactly the same either way.
  constexpr size_t kBatch = 64;  // rne_server's default --batch
  const auto run = [](size_t knn, WhereBackend** backend) {
    EngineOptions options;  // default batch_chunk
    options.num_threads = 2;
    auto engine = std::make_unique<QueryEngine>(options);
    auto stub = std::make_unique<WhereBackend>();
    *backend = stub.get();
    engine->AddReadyBackend(std::move(stub));
    std::vector<Request> batch(kBatch);
    for (size_t i = 0; i < knn; ++i) {
      batch[i].kind = RequestKind::kKnn;
      batch[i].k = 1;
    }
    batch[kBatch - 1].s = 999;  // out of range: a per-request failure
    std::vector<Response> responses;
    EXPECT_TRUE(engine->QueryBatch(batch, &responses).ok());
    EXPECT_TRUE(responses[0].status.ok());
    EXPECT_EQ(responses[kBatch - 1].status.code(),
              StatusCode::kInvalidArgument);
    return engine;
  };
  const size_t chunk = EngineOptions().batch_chunk;
  WhereBackend* distance_backend = nullptr;
  WhereBackend* one_chunk_backend = nullptr;
  WhereBackend* fanned_backend = nullptr;
  const auto distance_engine = run(0, &distance_backend);
  const auto one_chunk_engine = run(chunk, &one_chunk_backend);
  const auto fanned_engine = run(chunk + 1, &fanned_backend);
  EXPECT_EQ(distance_backend->on_caller.load(), kBatch - 1);
  EXPECT_EQ(distance_backend->on_worker.load(), 0u);
  EXPECT_EQ(one_chunk_backend->on_caller.load(), kBatch - 1);
  EXPECT_EQ(one_chunk_backend->on_worker.load(), 0u);
  EXPECT_GE(fanned_backend->on_caller.load(), QueryEngine::kClaimBlock);
  EXPECT_EQ(fanned_backend->on_caller.load() +
                fanned_backend->on_worker.load(),
            kBatch - 1);

  const MetricsSnapshot a = distance_engine->Metrics();
  EXPECT_EQ(a.served, kBatch - 1);
  EXPECT_EQ(a.failed, 1u);
  for (const QueryEngine* engine :
       {one_chunk_engine.get(), fanned_engine.get()}) {
    const MetricsSnapshot b = engine->Metrics();
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.fell_back_load, b.fell_back_load);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.fast_fails, b.fast_fails);
  }
}

// A distance batch larger than one chunk runs on its caller while the
// learned primary answers, and fans out while an exact backend answers it
// (here: the primary is down and every request falls back). The rule
// follows the answers of the last chunk, so it switches one batch late
// each way; answers and counters never depend on it. An inline batch
// never reaches a worker; in a fanned one the caller waits on its first
// call until a worker has called too, so the workers' share shows.
TEST(QueryEngineTest, DistanceBatchesFanOutWhileAnExactBackendAnswers) {
  constexpr size_t kBatch = 64;
  EngineOptions options;  // default batch_chunk (32)
  options.num_threads = 2;
  QueryEngine engine(options);
  auto primary_owned = std::make_unique<WhereBackend>();
  auto exact_owned = std::make_unique<WhereBackend>("exact-stub", true);
  WhereBackend* primary = primary_owned.get();
  WhereBackend* exact = exact_owned.get();
  engine.AddReadyBackend(std::move(primary_owned));
  engine.AddReadyBackend(std::move(exact_owned));

  const std::vector<Request> batch(kBatch);
  std::vector<Response> responses;
  // Serves the batch and checks who answered and whether any worker
  // called `backend`; the caller always calls it.
  const auto serve = [&](std::string_view answered_by, WhereBackend* backend,
                         bool fans_out) {
    const auto [caller_before, worker_before] = backend->Where();
    backend->caller_awaits_worker_calls =
        fans_out ? worker_before + 1 : 0;
    ASSERT_TRUE(engine.QueryBatch(batch, &responses).ok());
    for (const Response& response : responses) {
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.backend, answered_by);
    }
    const auto [caller_after, worker_after] = backend->Where();
    EXPECT_EQ(caller_after + worker_after - caller_before - worker_before,
              kBatch);
    EXPECT_GT(caller_after, caller_before);
    if (fans_out) {
      EXPECT_GT(worker_after, worker_before);
    } else {
      EXPECT_EQ(worker_after, worker_before);
    }
  };
  const auto calls = [](const WhereBackend* backend) {
    return backend->on_caller.load() + backend->on_worker.load();
  };
  serve("stub", primary, false);  // learned answers: on the caller
  primary->down = true;
  // The last answers were learned: still inline.
  serve("exact-stub", exact, false);
  EXPECT_EQ(primary->on_worker.load(), 0u);
  serve("exact-stub", exact, true);  // the last answers were exact: fans out
  EXPECT_EQ(calls(primary), 3 * kBatch);
  primary->down = false;
  serve("stub", primary, true);  // the last answers were exact: still fans out
  serve("stub", primary, false);  // learned answers again: back on the caller
  EXPECT_EQ(calls(primary), 5 * kBatch);
  EXPECT_EQ(calls(exact), 2 * kBatch);

  const MetricsSnapshot metrics = engine.Metrics();
  EXPECT_EQ(metrics.served, 5 * kBatch);
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_EQ(metrics.retries, 2 * kBatch);
}

// A fanned kNN batch whose searches take uneven time (a stub that sleeps
// on some sources) is claimed block by block by the caller and the pool
// helpers, with two callers sharing the engine: every request is answered
// exactly once, and every answer and counter equals a serial run's.
TEST(QueryEngineTest, FannedKnnBatchAnswersEveryRequestOnceLikeASerialRun) {
  class SleepyKnnBackend : public StubBackend {
   public:
    explicit SleepyKnnBackend(size_t n) : calls_per_source(n) {
      num_vertices_ = n;
    }
    std::vector<std::pair<VertexId, double>> Knn(VertexId s,
                                                 size_t k) override {
      calls_per_source[s].fetch_add(1);
      if (s % 5 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      std::vector<std::pair<VertexId, double>> answer;
      for (size_t i = 0; i < k; ++i) {
        answer.emplace_back(static_cast<VertexId>((s + i) % num_vertices_),
                            0.25 * static_cast<double>(s + i));
      }
      return answer;
    }
    std::vector<std::atomic<int>> calls_per_source;
  };
  constexpr size_t kCallers = 2;
  constexpr size_t kPerCaller = 203;  // not a whole number of blocks
  constexpr size_t kVertices = kCallers * kPerCaller;
  // Each caller's batch: its own sources, each once, plus one bad id.
  std::vector<std::vector<Request>> batches(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kPerCaller; ++i) {
      Request request;
      request.kind = RequestKind::kKnn;
      request.s = static_cast<VertexId>(c * kPerCaller + i);
      request.k = 1 + i % 4;
      batches[c].push_back(request);
    }
    Request bad;
    bad.kind = RequestKind::kKnn;
    bad.s = static_cast<VertexId>(kVertices);
    bad.k = 1;
    batches[c].insert(batches[c].begin() + 100, bad);
  }
  const auto make_engine = [&](size_t batch_chunk, SleepyKnnBackend** raw) {
    EngineOptions options;
    options.num_threads = 2;
    options.batch_chunk = batch_chunk;
    auto engine = std::make_unique<QueryEngine>(options);
    auto stub = std::make_unique<SleepyKnnBackend>(kVertices);
    *raw = stub.get();
    engine->AddReadyBackend(std::move(stub));
    return engine;
  };
  SleepyKnnBackend* serial_stub = nullptr;
  SleepyKnnBackend* fanned_stub = nullptr;
  const auto serial = make_engine(1000, &serial_stub);  // every batch inline
  const auto fanned = make_engine(8, &fanned_stub);
  std::vector<std::vector<Response>> want(kCallers);
  std::vector<std::vector<Response>> got(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    ASSERT_TRUE(serial->QueryBatch(batches[c], &want[c]).ok());
  }
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      EXPECT_TRUE(fanned->QueryBatch(batches[c], &got[c]).ok());
    });
  }
  for (std::thread& caller : callers) caller.join();

  for (size_t v = 0; v < kVertices; ++v) {
    EXPECT_EQ(fanned_stub->calls_per_source[v].load(), 1) << v;
  }
  for (size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(got[c].size(), want[c].size());
    for (size_t i = 0; i < want[c].size(); ++i) {
      EXPECT_EQ(got[c][i].status.code(), want[c][i].status.code()) << i;
      EXPECT_EQ(got[c][i].knn, want[c][i].knn) << i;
      EXPECT_EQ(got[c][i].backend, want[c][i].backend) << i;
    }
  }
  const MetricsSnapshot a = serial->Metrics();
  const MetricsSnapshot b = fanned->Metrics();
  EXPECT_EQ(b.served, kVertices);
  EXPECT_EQ(b.failed, kCallers);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.fast_fails, b.fast_fails);
}

// A chunk resolves the chain once, but each request still walks it: when
// the primary starts failing partway through a chunk, the requests after
// that point fall past a backend that failed to load to the exact one,
// and every counter says so exactly.
TEST(QueryEngineTest, PrimaryFailingMidChunkFallsDownTheChain) {
  constexpr size_t kAnswered = 3;  // calls the primary answers
  class FailsAfterBackend : public StubBackend {
   public:
    std::string Name() const override { return "fails-after"; }
    double Distance(VertexId s, VertexId t) override {
      if (calls_.fetch_add(1) >= kAnswered) {
        throw std::runtime_error("primary went down");
      }
      return static_cast<double>(s) + static_cast<double>(t);
    }
  };
  const Graph g = SmallNetwork();
  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(options);
  engine.AddReadyBackend(std::make_unique<FailsAfterBackend>());
  BackendContext ctx;
  ctx.graph = &g;
  engine.AddBackend("no-such-backend", ctx);  // fails to load
  engine.AddBackend("dijkstra", ctx);
  EXPECT_EQ(engine.WaitUntilLoaded().code(), StatusCode::kNotFound);

  const auto requests = RandomDistanceRequests(g, 8, 5);
  std::vector<Response> responses;
  ASSERT_TRUE(engine.QueryBatch(requests, &responses).ok());
  DijkstraSearch reference(g);
  for (size_t i = 0; i < requests.size(); ++i) {
    const Response& response = responses[i];
    ASSERT_TRUE(response.status.ok()) << i << ": "
                                      << response.status.ToString();
    if (i < kAnswered) {
      EXPECT_EQ(response.backend, "fails-after") << i;
      EXPECT_FALSE(response.fell_back) << i;
      EXPECT_EQ(response.distance,
                static_cast<double>(requests[i].s) + requests[i].t);
    } else {
      EXPECT_EQ(response.backend, "dijkstra") << i;
      EXPECT_TRUE(response.fell_back) << i;
      EXPECT_TRUE(response.exact) << i;
      EXPECT_NEAR(response.distance,
                  reference.Distance(requests[i].s, requests[i].t), 1e-6);
    }
  }
  const size_t fell = requests.size() - kAnswered;
  const MetricsSnapshot metrics = engine.Metrics();
  EXPECT_EQ(metrics.served, requests.size());
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_EQ(metrics.retries, fell);
  EXPECT_EQ(metrics.fell_back_load, fell);
  EXPECT_EQ(metrics.fast_fails, 0u);
}

// A failing primary costs every request one dispatch and one retry down
// the chain; nothing remembers the outage, so the first request after the
// primary heals is answered by it again.
TEST(QueryEngineTest, FailingPrimaryFallsBackOnEveryRequestAndRecoversAtOnce) {
  class FlakyBackend : public StubBackend {
   public:
    std::string Name() const override { return "flaky"; }
    double Distance(VertexId s, VertexId t) override {
      if (failing.load()) {
        calls_.fetch_add(1);
        throw std::runtime_error("flaky backend outage");
      }
      return StubBackend::Distance(s, t);
    }
    std::atomic<bool> failing{true};
  };
  const Graph g = SmallNetwork();
  EngineOptions options;
  options.num_threads = 1;  // serialize outcomes: counter asserts are exact
  QueryEngine engine(options);
  auto flaky = std::make_unique<FlakyBackend>();
  FlakyBackend* raw = flaky.get();
  engine.AddReadyBackend(std::move(flaky));
  BackendContext ctx;
  ctx.graph = &g;
  engine.AddBackend("dijkstra", ctx);
  ASSERT_TRUE(engine.WaitUntilLoaded().ok());

  DijkstraSearch reference(g);
  Request request;
  request.s = 3;
  request.t = 140;
  for (int i = 0; i < 5; ++i) {
    const Response response = engine.Query(request);
    ASSERT_TRUE(response.status.ok()) << i << ": "
                                      << response.status.ToString();
    EXPECT_EQ(response.backend, "dijkstra");
    EXPECT_TRUE(response.exact);
    EXPECT_TRUE(response.fell_back);
    EXPECT_NEAR(response.distance, reference.Distance(3, 140), 1e-6);
  }
  EXPECT_EQ(raw->calls_.load(), 5u);
  const MetricsSnapshot metrics = engine.Metrics();
  EXPECT_EQ(metrics.retries, 5u);
  EXPECT_EQ(metrics.served, 5u);
  EXPECT_EQ(metrics.failed, 0u);

  raw->failing.store(false);
  const Response healed = engine.Query(request);
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();
  EXPECT_EQ(healed.backend, "flaky");
  EXPECT_FALSE(healed.fell_back);
  EXPECT_EQ(healed.distance, 143.0);
}

TEST(MetricsSnapshotTest, ToJsonIsWellFormed) {
  MetricsSnapshot snapshot;
  snapshot.served = 3;
  snapshot.qps = 1234.5;
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"served\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // servebench reads these STATS keys; they stay, always 0.
  for (const char* key : {"rejected", "fell_back_deadline",
                          "fell_back_breaker"}) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\": 0"),
              std::string::npos)
        << key;
  }
  EXPECT_EQ(json.find("\"shed\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace rne::serve
