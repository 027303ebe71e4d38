// Microbenchmarks (google-benchmark): the L1 query kernel vs the generic Lp
// path, SIMD vs scalar kernel backends, point-to-point search costs
// (Dijkstra / bidirectional / A*), training throughput at several thread
// counts, exact training-label throughput, the end-to-end RNE query (the
// "60-150 ns" headline numbers of the paper's abstract), and the RneIndex
// kNN and range searches, and the serving path's per-request costs: an
// engine batch, a result-cache miss and a protocol line parse.
//
// Unless --benchmark_out is given, results are written to
// bench_results/perf_kernels.json (machine-readable; the JSON context block
// records the dispatched kernel backend).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "algo/astar.h"
#include "algo/bidirectional_dijkstra.h"
#include "algo/dijkstra.h"
#include "baselines/alt.h"
#include "baselines/ch.h"
#include "baselines/gtree.h"
#include "baselines/h2h.h"
#include "core/kernels.h"
#include "core/metric.h"
#include "core/quantized.h"
#include "core/rne.h"
#include "core/rne_index.h"
#include "core/trainer.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "serve/model_manager.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/server_loop.h"
#include "util/rng.h"

namespace rne {
namespace {

const Graph& BenchGraph() {
  static const Graph* g = [] {
    RoadNetworkConfig cfg;
    cfg.rows = 48;
    cfg.cols = 48;
    cfg.seed = 3;
    return new Graph(MakeRoadNetwork(cfg));
  }();
  return *g;
}

std::vector<float> RandomVec(size_t dim, Rng& rng) {
  std::vector<float> v(dim);
  for (float& x : v) x = static_cast<float>(rng.UniformReal(-1, 1));
  return v;
}

void BM_L1Kernel(benchmark::State& state) {
  Rng rng(1);
  const auto a = RandomVec(static_cast<size_t>(state.range(0)), rng);
  const auto b = RandomVec(static_cast<size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L1Dist(a, b));
  }
}
BENCHMARK(BM_L1Kernel)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Scalar reference for the same sizes: the BM_L1Kernel/N vs
// BM_L1KernelScalar/N ratio is the SIMD speedup on this machine.
void BM_L1KernelScalar(benchmark::State& state) {
  Rng rng(1);
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto a = RandomVec(dim, rng);
  const auto b = RandomVec(dim, rng);
  const KernelOps& ops = ScalarKernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.l1(a.data(), b.data(), dim));
  }
}
BENCHMARK(BM_L1KernelScalar)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Fused distance + sign gradient (one pass, used by the p=1 SGD loop).
void BM_L1SignGradFused(benchmark::State& state) {
  Rng rng(14);
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto a = RandomVec(dim, rng);
  const auto b = RandomVec(dim, rng);
  std::vector<float> grad(dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L1DistWithSignGrad(a, b, grad));
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_L1SignGradFused)->Arg(64)->Arg(128);

// The pre-kernel path: separate distance pass + gradient pass (double
// staging, as MetricDist + MetricGradient).
void BM_L1SignGradSeparate(benchmark::State& state) {
  Rng rng(14);
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto a = RandomVec(dim, rng);
  const auto b = RandomVec(dim, rng);
  std::vector<double> grad(dim);
  for (auto _ : state) {
    const double dist = MetricDist(a, b, 1.0);
    MetricGradient(a, b, 1.0, dist, grad);
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_L1SignGradSeparate)->Arg(64)->Arg(128);

// Fused row update (the SGD inner write): row += alpha * grad.
void BM_AxpyKernel(benchmark::State& state) {
  Rng rng(15);
  const size_t dim = static_cast<size_t>(state.range(0));
  auto row = RandomVec(dim, rng);
  const auto grad = RandomVec(dim, rng);
  for (auto _ : state) {
    AxpyKernel(std::span<float>(row), grad, 1e-6f);
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(BM_AxpyKernel)->Arg(64)->Arg(128);

std::vector<uint8_t> RandomBytes(size_t dim, Rng& rng) {
  std::vector<uint8_t> v(dim);
  for (uint8_t& x : v) x = static_cast<uint8_t>(rng.UniformIndex(256));
  return v;
}

// uint8 SAD-style quantized distance kernel, dispatched vs scalar.
void BM_QuantizedKernel(benchmark::State& state) {
  Rng rng(16);
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto a = RandomBytes(dim, rng);
  const auto b = RandomBytes(dim, rng);
  auto steps = RandomVec(dim, rng);
  for (float& s : steps) s = std::abs(s) + 1e-3f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        QuantizedL1Kernel(a.data(), b.data(), steps.data(), dim));
  }
}
BENCHMARK(BM_QuantizedKernel)->Arg(64)->Arg(128);

void BM_QuantizedKernelScalar(benchmark::State& state) {
  Rng rng(16);
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto a = RandomBytes(dim, rng);
  const auto b = RandomBytes(dim, rng);
  auto steps = RandomVec(dim, rng);
  for (float& s : steps) s = std::abs(s) + 1e-3f;
  const KernelOps& ops = ScalarKernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.qdist(a.data(), b.data(), steps.data(), dim));
  }
}
BENCHMARK(BM_QuantizedKernelScalar)->Arg(64)->Arg(128);

void BM_GenericLpKernel(benchmark::State& state) {
  Rng rng(2);
  const auto a = RandomVec(64, rng);
  const auto b = RandomVec(64, rng);
  const double p = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LpDist(a, b, p));
  }
}
BENCHMARK(BM_GenericLpKernel)->Arg(1)->Arg(2)->Arg(3);

void BM_DijkstraQuery(benchmark::State& state) {
  const Graph& g = BenchGraph();
  DijkstraSearch search(g);
  Rng rng(3);
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    benchmark::DoNotOptimize(search.Distance(s, t));
  }
}
BENCHMARK(BM_DijkstraQuery);

void BM_BidirectionalQuery(benchmark::State& state) {
  const Graph& g = BenchGraph();
  BidirectionalDijkstra search(g);
  Rng rng(4);
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    benchmark::DoNotOptimize(search.Distance(s, t));
  }
}
BENCHMARK(BM_BidirectionalQuery);

void BM_AStarGeoQuery(benchmark::State& state) {
  const Graph& g = BenchGraph();
  AStarSearch search(g);
  Rng rng(5);
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    benchmark::DoNotOptimize(search.DistanceGeo(s, t));
  }
}
BENCHMARK(BM_AStarGeoQuery);

const Rne& BenchModel() {
  static const Rne* model = [] {
    RneConfig config;
    config.dim = 64;
    config.train.level_samples = 5000;
    config.train.vertex_samples = 20000;
    config.train.finetune_rounds = 0;
    return new Rne(Rne::Build(BenchGraph(), config));
  }();
  return *model;
}

void BM_RneQuery(benchmark::State& state) {
  const Rne& model = BenchModel();
  Rng rng(6);
  const size_t n = model.NumVertices();
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    const auto t = static_cast<VertexId>(rng.UniformIndex(n));
    benchmark::DoNotOptimize(model.Query(s, t));
  }
}
BENCHMARK(BM_RneQuery);

// The paper's dispatch workload: one source against a candidate batch.
// Reported time is per batch; divide by the batch size for per-distance
// cost (streaming the matrix beats pointer-chasing per Query call).
void BM_RneOneToMany(benchmark::State& state) {
  const Rne& model = BenchModel();
  const auto batch = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<VertexId> targets(batch);
  for (auto& t : targets) {
    t = static_cast<VertexId>(rng.UniformIndex(model.NumVertices()));
  }
  std::vector<double> out(batch);
  for (auto _ : state) {
    model.QueryOneToMany(0, targets, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_RneOneToMany)->Arg(100)->Arg(1000);

// The servebench set-up: the 64x64 grid of `rne_tool generate --seed 11`
// and a d = 64 model with `rne_tool build`'s training defaults (sequential
// SGD here, so every run measures the same model).
const Graph& ServeGraph() {
  static const Graph* g = [] {
    RoadNetworkConfig cfg;
    cfg.rows = 64;
    cfg.cols = 64;
    cfg.seed = 11;
    return new Graph(MakeRoadNetwork(cfg));
  }();
  return *g;
}

const Rne& ServeModel() {
  static const Rne* model = [] {
    RneConfig config;
    config.dim = 64;
    config.train.seed = 13;
    return new Rne(Rne::Build(ServeGraph(), config));
  }();
  return *model;
}

const RneIndex& ServeIndex() {
  static const RneIndex* index = new RneIndex(&ServeModel());
  return *index;
}

// One `KNN s k` request's search (the knn_rne workload), uniform sources.
void BM_RneIndexKnn(benchmark::State& state) {
  const RneIndex& index = ServeIndex();
  const auto k = static_cast<size_t>(state.range(0));
  const size_t n = ServeModel().NumVertices();
  Rng rng(23);
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    benchmark::DoNotOptimize(index.Knn(s, k));
  }
}
BENCHMARK(BM_RneIndexKnn)->Arg(10);

// Range search at tau = the mean 10th-neighbour distance, so a query
// returns about as many targets as BM_RneIndexKnn's.
void BM_RneIndexRange(benchmark::State& state) {
  const RneIndex& index = ServeIndex();
  const size_t n = ServeModel().NumVertices();
  static const double tau = [&] {
    Rng rng(29);
    double sum = 0.0;
    for (int i = 0; i < 256; ++i) {
      const auto s = static_cast<VertexId>(rng.UniformIndex(n));
      sum += index.Knn(s, 10).back().second;
    }
    return sum / 256.0;
  }();
  Rng rng(23);
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    benchmark::DoNotOptimize(index.Range(s, tau));
  }
  state.counters["tau"] = tau;
}
BENCHMARK(BM_RneIndexRange);

// 8-bit quantized serving (1/4 index size): byte-row L1 walk.
void BM_QuantizedRneQuery(benchmark::State& state) {
  static const QuantizedRne* quantized =
      new QuantizedRne(BenchModel());
  Rng rng(13);
  const size_t n = quantized->NumVertices();
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    const auto t = static_cast<VertexId>(rng.UniformIndex(n));
    benchmark::DoNotOptimize(quantized->Query(s, t));
  }
}
BENCHMARK(BM_QuantizedRneQuery);

void BM_H2hQuery(benchmark::State& state) {
  static const H2HIndex* index = new H2HIndex(BenchGraph());
  Rng rng(8);
  const size_t n = BenchGraph().NumVertices();
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    const auto t = static_cast<VertexId>(rng.UniformIndex(n));
    benchmark::DoNotOptimize(
        const_cast<H2HIndex*>(index)->Query(s, t));
  }
}
BENCHMARK(BM_H2hQuery);

void BM_ChQuery(benchmark::State& state) {
  static ContractionHierarchy* index =
      new ContractionHierarchy(BenchGraph());
  Rng rng(9);
  const size_t n = BenchGraph().NumVertices();
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    const auto t = static_cast<VertexId>(rng.UniformIndex(n));
    benchmark::DoNotOptimize(index->Query(s, t));
  }
}
BENCHMARK(BM_ChQuery);

void BM_GTreeQuery(benchmark::State& state) {
  static GTree* index = new GTree(BenchGraph());
  Rng rng(10);
  const size_t n = BenchGraph().NumVertices();
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    const auto t = static_cast<VertexId>(rng.UniformIndex(n));
    benchmark::DoNotOptimize(index->Distance(s, t));
  }
}
BENCHMARK(BM_GTreeQuery);

void BM_LtQuery(benchmark::State& state) {
  static AltIndex* index = [] {
    Rng rng(11);
    return new AltIndex(BenchGraph(), 64, rng);
  }();
  Rng rng(12);
  const size_t n = BenchGraph().NumVertices();
  for (auto _ : state) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(n));
    const auto t = static_cast<VertexId>(rng.UniformIndex(n));
    benchmark::DoNotOptimize(index->Query(s, t));
  }
}
BENCHMARK(BM_LtQuery);

// Observability overhead A/B on the kernel path: BM_L1Kernel's production
// code with obs disabled (Arg 0) vs enabled (Arg 1). The distance kernels
// are deliberately NOT instrumented per call (see BM_ObsCounterCost for
// why), so the /0 vs /1 delta must be measurement noise — this leg guards
// against instrumentation creeping into the kernel hot loop. Budget: <=2%.
void BM_L1KernelObs(benchmark::State& state) {
  Rng rng(1);
  const auto a = RandomVec(64, rng);
  const auto b = RandomVec(64, rng);
  obs::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L1Dist(a, b));
  }
  obs::SetEnabled(true);
}
BENCHMARK(BM_L1KernelObs)->Arg(0)->Arg(1);

// Raw cost of one registry-counter macro next to a ~20 ns kernel call:
// Arg(0) with obs::SetEnabled(false) (one relaxed load, branch not taken),
// Arg(1) with the relaxed fetch_add live. This is informational — it
// documents WHY hot loops accumulate locally and flush per chunk/epoch
// instead of bumping a shared atomic per sample (the per-call atomic would
// nearly double a 20 ns kernel).
void BM_ObsCounterCost(benchmark::State& state) {
  Rng rng(1);
  const auto a = RandomVec(64, rng);
  const auto b = RandomVec(64, rng);
  obs::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L1Dist(a, b));
    RNE_COUNTER_ADD("bench.l1_calls", 1);
  }
  obs::SetEnabled(true);
}
BENCHMARK(BM_ObsCounterCost)->Arg(0)->Arg(1);

// Serve-path A/B: batched QueryEngine requests against the resident model
// backend with observability off (0) vs on (1). The engine's own counters
// and latency histogram (its METRICS source) run either way, so the toggle
// covers only the sampled per-backend timing — the serve-p50 side of the
// <=2% overhead budget. A distance batch runs whole on its caller, so this
// measures one thread (no pool fan-out).
void BM_ServeQueryObs(benchmark::State& state) {
  static serve::QueryEngine* engine = [] {
    serve::EngineOptions options;
    options.num_threads = 2;
    auto* e = new serve::QueryEngine(options);
    e->AddReadyBackend(serve::MakeSharedModelBackend(BenchModel()));
    return e;
  }();
  Rng rng(23);
  const size_t n = BenchModel().NumVertices();
  // Large enough that per-query instrumentation costs dominate the fixed
  // per-batch costs (chain resolution, clock reads), which on shared
  // machines are noisier than the 2% budget being measured.
  std::vector<serve::Request> requests(1024);
  for (auto& r : requests) {
    r.kind = serve::RequestKind::kDistance;
    r.s = static_cast<VertexId>(rng.UniformIndex(n));
    r.t = static_cast<VertexId>(rng.UniformIndex(n));
  }
  std::vector<serve::Response> responses;
  obs::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->QueryBatch(requests, &responses).ok());
    benchmark::DoNotOptimize(responses.data());
  }
  obs::SetEnabled(true);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(requests.size()));
}
BENCHMARK(BM_ServeQueryObs)->Arg(0)->Arg(1)->UseRealTime();

// The engine as rne_server runs it: 64-request distance batches (the
// default --batch) through QueryEngine::QueryBatch against a ModelManager
// managed backend with a dijkstra fallback, on an engine with 2 workers.
// At 2 threads two callers share the engine, as two reactors do.
// ns_per_req is wall time per request across all callers (1e9 /
// items_per_second, including the ~50 ns model query), so two callers
// that do not contend halve it.
void BM_EngineBatch(benchmark::State& state) {
  struct Served {
    serve::ModelManager manager;
    serve::QueryEngine engine{[] {
      serve::EngineOptions options;
      options.num_threads = 2;
      return options;
    }()};
  };
  static Served* served = [] {
    auto* s = new Served();
    const std::string path =
        (std::filesystem::temp_directory_path() / "bench_engine_batch.rne")
            .string();
    if (!BenchModel().Save(path).ok() || !s->manager.Load(path).ok()) {
      std::abort();
    }
    std::filesystem::remove(path);
    s->engine.AddReadyBackend(s->manager.MakeManagedBackend());
    serve::BackendContext ctx;
    ctx.graph = &BenchGraph();
    s->engine.AddBackend("dijkstra", ctx);
    if (!s->engine.WaitUntilLoaded().ok()) std::abort();
    return s;
  }();
  constexpr size_t kBatch = 64;
  Rng rng(41 + static_cast<uint64_t>(state.thread_index()));
  const size_t n = BenchModel().NumVertices();
  std::vector<serve::Request> requests(kBatch);
  for (auto& r : requests) {
    r.s = static_cast<VertexId>(rng.UniformIndex(n));
    r.t = static_cast<VertexId>(rng.UniformIndex(n));
  }
  std::vector<serve::Response> responses;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        served->engine.QueryBatch(requests, &responses).ok());
    benchmark::DoNotOptimize(responses.data());
  }
  const auto items = static_cast<double>(state.iterations() * kBatch);
  state.SetItemsProcessed(static_cast<int64_t>(items));
  state.counters["ns_per_req"] = benchmark::Counter(
      items * 1e-9, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineBatch)->Threads(1)->Threads(2)->UseRealTime();

// The same 64-request distance batches through CachedEngine in front of a
// 65,536-entry cache, as rne_server --cache runs them. Arg 0 serves a
// ready learned backend: its distances skip the cache, so the cost over
// BM_EngineBatch is the policy check. Arg 1 serves an exact one
// (dijkstra): the first pass inserts its answers and every later pass
// hits, so the cost is the lookup. ns_per_req as in BM_EngineBatch.
void BM_CachedEngineBatch(benchmark::State& state) {
  struct Served {
    explicit Served(bool exact)
        : engine([] {
            serve::EngineOptions options;
            options.num_threads = 2;
            return options;
          }()),
          cached(&engine, &cache) {
      if (exact) {
        serve::BackendContext ctx;
        ctx.graph = &BenchGraph();
        engine.AddBackend("dijkstra", ctx);
      } else {
        engine.AddReadyBackend(serve::MakeSharedModelBackend(BenchModel()));
      }
      if (!engine.WaitUntilLoaded().ok()) std::abort();
    }
    serve::QueryEngine engine;
    serve::ResultCache cache;
    serve::CachedEngine cached;
  };
  static Served* learned = new Served(false);
  static Served* exact = new Served(true);
  Served& served = state.range(0) == 0 ? *learned : *exact;
  constexpr size_t kBatch = 64;
  Rng rng(43);
  const size_t n = BenchModel().NumVertices();
  std::vector<serve::Request> requests(kBatch);
  for (auto& r : requests) {
    r.s = static_cast<VertexId>(rng.UniformIndex(n));
    r.t = static_cast<VertexId>(rng.UniformIndex(n));
  }
  std::vector<serve::Response> responses;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        served.cached.QueryBatch(requests, &responses).ok());
    benchmark::DoNotOptimize(responses.data());
  }
  const auto items = static_cast<double>(state.iterations() * kBatch);
  state.SetItemsProcessed(static_cast<int64_t>(items));
  state.counters["ns_per_req"] = benchmark::Counter(
      items * 1e-9, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CachedEngineBatch)->Arg(0)->Arg(1)->UseRealTime();

// The engine as rne_server runs knn_rne: 64-request `KNN s 10` batches
// over uniform sources through QueryEngine::QueryBatch against a
// ModelManager managed backend of the servebench model with a dijkstra
// fallback, on an engine with 2 workers. Every batch fans out: the caller
// and the pool helpers claim its blocks. At 2 threads two callers share
// the engine, as two reactors do. ns_per_req as in BM_EngineBatch.
void BM_EngineKnnBatch(benchmark::State& state) {
  struct Served {
    serve::ModelManager manager;
    serve::QueryEngine engine{[] {
      serve::EngineOptions options;
      options.num_threads = 2;
      return options;
    }()};
  };
  static Served* served = [] {
    auto* s = new Served();
    const std::string path =
        (std::filesystem::temp_directory_path() / "bench_engine_knn.rne")
            .string();
    if (!ServeModel().Save(path).ok() || !s->manager.Load(path).ok()) {
      std::abort();
    }
    std::filesystem::remove(path);
    s->engine.AddReadyBackend(s->manager.MakeManagedBackend());
    serve::BackendContext ctx;
    ctx.graph = &ServeGraph();
    s->engine.AddBackend("dijkstra", ctx);
    if (!s->engine.WaitUntilLoaded().ok()) std::abort();
    return s;
  }();
  constexpr size_t kBatch = 64;
  Rng rng(47 + static_cast<uint64_t>(state.thread_index()));
  const size_t n = ServeModel().NumVertices();
  std::vector<serve::Request> requests(kBatch);
  for (auto& r : requests) {
    r.kind = serve::RequestKind::kKnn;
    r.s = static_cast<VertexId>(rng.UniformIndex(n));
    r.k = 10;
  }
  std::vector<serve::Response> responses;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        served->engine.QueryBatch(requests, &responses).ok());
    benchmark::DoNotOptimize(responses.data());
  }
  const auto items = static_cast<double>(state.iterations() * kBatch);
  state.SetItemsProcessed(static_cast<int64_t>(items));
  state.counters["ns_per_req"] = benchmark::Counter(
      items * 1e-9, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineKnnBatch)->Threads(1)->Threads(2)->UseRealTime();

// One answer distance printed by AppendDistance, on values shaped like a
// `KNN s 10` answer's: one 0.0 in ten (the source itself), the rest
// uniform over [0, 2,000).
void BM_AppendDistance(benchmark::State& state) {
  Rng rng(53);
  std::vector<double> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 10 == 0 ? 0.0 : rng.UniformReal(0.0, 2000.0);
  }
  std::string out;
  size_t i = 0;
  for (auto _ : state) {
    if (i == values.size()) {
      i = 0;
      out.clear();
    }
    serve::AppendDistance(values[i++], &out);
  }
  benchmark::DoNotOptimize(out.data());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AppendDistance);

// Result-cache miss path, the cost a uniform QUERY stream pays per request:
// batches of 64 uniform (s, t) keys over 4096^2, each looked up (a miss in
// all but ~0.4% of cases) and then inserted, against one shared cache of
// 65,536 entries in 16 shards. At 2 threads both run on the same cache at
// once, as two reactors do. Time is per request.
void BM_ResultCacheMissPath(benchmark::State& state) {
  static serve::ResultCache* cache = [] {
    serve::ResultCacheOptions options;
    options.capacity = 65536;
    options.num_shards = 16;
    return new serve::ResultCache(options);
  }();
  constexpr size_t kBatch = 64;
  Rng rng(31 + static_cast<uint64_t>(state.thread_index()));
  std::vector<serve::Request> requests(kBatch);
  std::vector<serve::Response> responses(kBatch);
  serve::Response answer;
  answer.distance = 1234.5;
  answer.backend = "rne";
  for (auto _ : state) {
    for (auto& r : requests) {
      r.kind = serve::RequestKind::kDistance;
      r.s = static_cast<VertexId>(rng.UniformIndex(4096));
      r.t = static_cast<VertexId>(rng.UniformIndex(4096));
    }
    const uint64_t generation = cache->generation();
    benchmark::DoNotOptimize(cache->LookupBatch(requests, responses));
    for (auto& response : responses) {
      if (!response.cached) response = answer;
    }
    cache->InsertBatch(requests, responses, generation);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_ResultCacheMissPath)->Threads(1)->Threads(2)->UseRealTime();

// One protocol line parsed by ParseRequestLine: uniform QUERY lines over
// 4096 vertices, as the reactor sees them.
void BM_ParseRequestLine(benchmark::State& state) {
  Rng rng(37);
  std::vector<std::string> lines(256);
  for (auto& line : lines) {
    line = "QUERY " + std::to_string(rng.UniformIndex(4096)) + " " +
           std::to_string(rng.UniformIndex(4096));
  }
  serve::ParsedLine parsed;
  size_t i = 0;
  for (auto _ : state) {
    serve::ParseRequestLine(lines[i++ & 255], &parsed);
    benchmark::DoNotOptimize(parsed.request.t);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ParseRequestLine);

// SGD training throughput on a 64x64 road network at several thread counts
// (items/s = samples/s). Samples are materialized once; each iteration
// re-trains a fresh model on them, so the measured region is pure SGD.
// `nodes` 0 trains the vertex level only (phases 2-3: node rows frozen);
// `nodes` 1 uses phase 1's first-step learning rates, nonzero on every
// level, so parallel runs take the node-delta merge path.
void BM_TrainThroughput(benchmark::State& state) {
  static const Graph* g = [] {
    RoadNetworkConfig cfg;
    cfg.rows = 64;
    cfg.cols = 64;
    cfg.seed = 17;
    return new Graph(MakeRoadNetwork(cfg));
  }();
  static const PartitionHierarchy* hier = new PartitionHierarchy(
      PartitionHierarchy::Build(*g, HierarchyOptions{}));
  static const std::vector<DistanceSample>* samples = [] {
    TrainConfig cfg;
    Trainer t(*g, *hier, cfg);
    Rng rng(21);
    return new std::vector<DistanceSample>(
        t.Materialize(RandomVertexPairs(g->NumVertices(), 20000, rng, 8)));
  }();

  const size_t epochs = 2;
  size_t samples_done = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TrainConfig cfg;
    cfg.num_threads = static_cast<size_t>(state.range(0));
    Trainer trainer(*g, *hier, cfg);
    const uint32_t levels = trainer.model().num_levels();
    std::vector<double> lrs(levels + 1, 0.0);
    if (state.range(1) == 0) {
      lrs[levels] = cfg.lr0;
    } else {
      for (uint32_t l = 1; l <= levels; ++l) lrs[l] = cfg.lr0 / l;
    }
    state.ResumeTiming();
    trainer.TrainOnSamples(*samples, lrs, epochs);
    samples_done += trainer.total_samples_processed();
  }
  state.SetItemsProcessed(static_cast<int64_t>(samples_done));
}
BENCHMARK(BM_TrainThroughput)
    ->ArgNames({"threads", "nodes"})
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Exact training labels (items/s = labels/s): one phase-1 level's 20,000
// sub-graph pairs on the servebench graph at 1 and 4 threads. Each
// iteration constructs a fresh Trainer, so the label-index build is timed
// along with the labelling pass, as it is in a model build.
void BM_TrainMaterialize(benchmark::State& state) {
  const Graph& g = ServeGraph();
  static const PartitionHierarchy* hier = new PartitionHierarchy(
      PartitionHierarchy::Build(g, HierarchyOptions{}));
  static const std::vector<VertexPair>* pairs = [] {
    Rng rng(29);
    return new std::vector<VertexPair>(
        SubgraphLevelPairs(*hier, 1, 20000, rng, TrainConfig{}.source_reuse));
  }();
  TrainConfig cfg;
  cfg.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Trainer trainer(g, *hier, cfg);
    benchmark::DoNotOptimize(trainer.Materialize(*pairs).data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs->size()));
}
BENCHMARK(BM_TrainMaterialize)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace rne

// Custom main: defaults --benchmark_out to bench_results/perf_kernels.json
// and records the dispatched kernel backend in the JSON context block.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=bench_results/perf_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    if (!ec) {
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
    }
  }
  benchmark::AddCustomContext("kernel_backend", rne::KernelBackendName());
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Metrics sidecar: the registry state accumulated across the run
  // (training/build counters from BenchModel, serve histograms from the A/B
  // leg) next to the google-benchmark report.
  {
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    if (!ec) {
      FILE* f = std::fopen("bench_results/perf_kernels_metrics.json", "w");
      if (f != nullptr) {
        const std::string json = rne::obs::MetricsRegistry::Global().ToJson();
        std::fputs(json.c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
      }
    }
  }
  return 0;
}
