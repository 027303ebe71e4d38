// Load generator for the serving subsystem: measures sustained QPS and
// latency percentiles of the batched QueryEngine on a generated grid in a
// closed loop — T client threads issue batches of B back-to-back, so the
// measured rate is the system's capacity at that concurrency. It sweeps
// thread counts x batch sizes, picks the fastest point for the legs below,
// and writes bench_results/serve_report.json. (Open-loop latency under an
// offered load is servebench's measurement.)
//
// Socket legs (in-process net::TcpServer on an ephemeral loopback port)
// measure the epoll front end with the same Zipf-skewed generator:
//   * cache A/B — an open-loop pipelined stream against a Dijkstra-backed
//     server with and without the sharded LRU result cache; reports the
//     cached/uncached throughput ratio and the hit rate;
//   * socket brownout — a 100% error rate injected into the learned
//     primary mid-run; reports the throughput dip while the exact fallback
//     carries traffic, and whether the server kept answering through it.
// --connect host:port turns the binary into a pure client driving an
// external rne_server (the CI socket smoke leg).
//
// An mmap leg re-loads the trained model in a child process per load mode
// (heap / mmap; --mmap-probe <mode> is the child entry point) and reports
// load time, first-query latency, resident-set ceiling (VmHWM) and
// load-time RSS growth from /proc/self/status, plus a CRC over the answer
// bytes — the parent asserts the CRC is bit-identical across both modes,
// so zero-copy serving provably returns the heap path's answers.
//
//   bench_serve [--rows 64] [--cols 64] [--dim 32] [--seconds 1.0]
//               [--threads 1,2,4] [--batches 1,16,64,256] [--out <path>]
//               [--brownout-seconds 1.5]   (0 skips the socket brownout)
//               [--zipf 0] [--socket-seconds <seconds>] [--pipeline 64]
//   bench_serve --connect 127.0.0.1:7777 [--queries 1000] [--pipeline 64]
//               [--vertices 4096] [--zipf 1.0]
//   bench_serve --mmap-probe heap|mmap --model city.rne
//               [--probe-queries 512]
//
// Smoke run (CI): bench_serve --seconds 0.2 --threads 2 --batches 64
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/dijkstra.h"
#include "bench/bench_common.h"
#include "core/rne.h"
#include "graph/generators.h"
#include "util/crc32c.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "util/arg_parser.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rne::bench {
namespace {

struct SweepPoint {
  size_t threads = 0;
  size_t batch = 0;
  double achieved_qps = 0.0;
  serve::MetricsSnapshot metrics;
};

std::vector<size_t> ParseSizeList(const std::string& csv) {
  std::vector<size_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const long v = std::strtol(item.c_str(), nullptr, 10);
    if (v > 0) out.push_back(static_cast<size_t>(v));
  }
  return out;
}

/// Maps a Zipf rank to a deterministic (s, t) pair via an integer mix, so a
/// skew-s stream over the rank universe revisits its hot pairs with Zipf
/// frequency while the pairs themselves spread across the whole graph.
std::pair<VertexId, VertexId> PairForRank(size_t rank, size_t num_vertices) {
  uint64_t z = static_cast<uint64_t>(rank) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return {static_cast<VertexId>((z >> 32) % num_vertices),
          static_cast<VertexId>((z & 0xffffffffULL) % num_vertices)};
}

/// Rank universe for skewed pair streams: enough distinct pairs that the
/// tail misses, small enough that the head re-hits.
size_t PairUniverse(size_t num_vertices) {
  return std::max<size_t>(1024, 4 * num_vertices);
}

/// `zipf_s` > 0 draws (s, t) pairs Zipf-skewed over PairUniverse ranks;
/// 0 keeps the historical uniform independent-endpoint stream.
std::vector<serve::Request> RandomRequests(const Graph& g, size_t n,
                                           uint64_t seed, double zipf_s) {
  Rng rng(seed);
  std::vector<serve::Request> out(n);
  if (zipf_s > 0.0) {
    const ZipfSampler zipf(PairUniverse(g.NumVertices()), zipf_s);
    for (auto& r : out) {
      r.kind = serve::RequestKind::kDistance;
      const auto [s, t] = PairForRank(zipf.Sample(rng), g.NumVertices());
      r.s = s;
      r.t = t;
    }
    return out;
  }
  for (auto& r : out) {
    r.kind = serve::RequestKind::kDistance;
    r.s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
    r.t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
  }
  return out;
}

/// Fresh engine per sweep point so its metrics cover
/// exactly that run: learned primary (already resident) with an exact
/// Dijkstra fallback, mirroring the rne_server default chain.
std::unique_ptr<serve::QueryEngine> MakeEngine(const Rne& model,
                                               const Graph& g,
                                               size_t num_threads) {
  serve::EngineOptions options;
  options.num_threads = num_threads;
  auto engine = std::make_unique<serve::QueryEngine>(options);
  engine->AddReadyBackend(serve::MakeSharedModelBackend(model));
  serve::BackendContext ctx;
  ctx.graph = &g;
  engine->AddBackend("dijkstra", ctx);
  // Discard OK: dijkstra is graph-built and cannot fail to load; the
  // benchmark would only measure an empty chain otherwise.
  (void)engine->WaitUntilLoaded();
  return engine;
}

SweepPoint RunClosedLoop(const Rne& model, const Graph& g, size_t threads,
                         size_t batch, double seconds, double zipf_s) {
  auto engine_ptr = MakeEngine(model, g, threads);
  serve::QueryEngine& engine = *engine_ptr;
  std::atomic<uint64_t> served{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      const auto requests = RandomRequests(g, batch, 1000 + c, zipf_s);
      std::vector<serve::Response> responses;
      while (!stop.load(std::memory_order_relaxed)) {
        // Discard OK: QueryBatch always returns OK; failures are per
        // response and show in the engine metrics.
        (void)engine.QueryBatch(requests, &responses);
        served.fetch_add(requests.size(), std::memory_order_relaxed);
      }
    });
  }
  Timer timer;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : clients) t.join();
  const double elapsed = timer.ElapsedSeconds();

  SweepPoint point;
  point.threads = threads;
  point.batch = batch;
  point.achieved_qps = static_cast<double>(served.load()) / elapsed;
  point.metrics = engine.Metrics();
  return point;
}

/// A TcpServer + engine (+ optional result cache) serving on an ephemeral
/// loopback port with the reactor on its own thread.
struct SocketServer {
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::ResultCache> cache;
  std::unique_ptr<net::TcpServer> server;
  std::thread reactor;

  uint16_t port() const { return server->port(); }
  void Stop() {
    server->Shutdown();
    if (reactor.joinable()) reactor.join();
  }
};

/// `model` == nullptr serves Dijkstra only (expensive misses — the cache
/// A/B needs the miss path to dominate); with a model the chain mirrors
/// rne_server's rne,dijkstra default. `cache_entries` == 0 disables the
/// result cache.
std::unique_ptr<SocketServer> StartSocketServer(
    const Graph& g, const Rne* model, size_t threads, size_t batch,
    size_t cache_entries) {
  auto s = std::make_unique<SocketServer>();
  serve::EngineOptions options;
  options.num_threads = threads;
  s->engine = std::make_unique<serve::QueryEngine>(options);
  if (model != nullptr) {
    s->engine->AddReadyBackend(serve::MakeSharedModelBackend(*model));
  }
  serve::BackendContext ctx;
  ctx.graph = &g;
  s->engine->AddBackend("dijkstra", ctx);
  // Discard OK: dijkstra is graph-built and cannot fail to load.
  (void)s->engine->WaitUntilLoaded();
  if (cache_entries > 0) {
    serve::ResultCacheOptions cache_options;
    cache_options.capacity = cache_entries;
    s->cache = std::make_unique<serve::ResultCache>(cache_options);
  }
  net::TcpServerOptions server_options;
  server_options.port = 0;
  server_options.loop.batch = batch;
  server_options.loop.cache = s->cache.get();
  s->server = std::make_unique<net::TcpServer>(*s->engine, server_options);
  if (const Status started = s->server->Start(); !started.ok()) {
    std::fprintf(stderr, "socket leg skipped: %s\n",
                 started.ToString().c_str());
    return nullptr;
  }
  s->reactor = std::thread([srv = s->server.get()] {
    // Discard OK: a reactor error surfaces as zero achieved throughput.
    (void)srv->Serve();
  });
  return s;
}

struct SocketLegResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  uint64_t sent = 0;
  uint64_t received = 0;
};

/// Closed-loop capacity probe: at most `pipeline` queries in flight, so the
/// measurement ends promptly (no unbounded kernel-buffer backlog to drain).
double SocketClosedLoopQps(uint16_t port, const Graph& g, double zipf_s,
                           size_t pipeline, double seconds, uint64_t seed) {
  net::BlockingClient client;
  if (!client.Connect("127.0.0.1", port, std::chrono::milliseconds(10000))
           .ok()) {
    return 0.0;
  }
  Rng rng(seed);
  const ZipfSampler zipf(PairUniverse(g.NumVertices()), zipf_s);
  uint64_t done = 0;
  Timer timer;
  std::string block;
  while (timer.ElapsedSeconds() < seconds) {
    block.clear();
    for (size_t i = 0; i < pipeline; ++i) {
      VertexId s, t;
      if (zipf_s > 0.0) {
        std::tie(s, t) = PairForRank(zipf.Sample(rng), g.NumVertices());
      } else {
        s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
        t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
      }
      block += "QUERY " + std::to_string(s) + " " + std::to_string(t) + "\n";
    }
    if (!client.Send(block).ok()) break;
    for (size_t i = 0; i < pipeline; ++i) {
      if (!client.ReadLine().ok()) return 0.0;
      ++done;
    }
  }
  const double elapsed = timer.ElapsedSeconds();
  return elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
}

/// Open-loop pipelined stream over one connection: a writer thread sends
/// `pipeline`-query bursts on a fixed schedule (never completion-driven),
/// a reader thread consumes answers as they arrive. Offered load beyond
/// the server's capacity queues, bounded by an in-flight window so the
/// post-deadline drain finishes in bounded time instead of emptying
/// megabytes of kernel socket buffer.
SocketLegResult RunSocketOpenLoop(uint16_t port, const Graph& g,
                                  double zipf_s, size_t pipeline,
                                  double offered_qps, double seconds,
                                  uint64_t seed) {
  constexpr uint64_t kMaxInflight = 8192;
  SocketLegResult result;
  result.offered_qps = offered_qps;
  net::BlockingClient client;
  const Status connected =
      client.Connect("127.0.0.1", port, std::chrono::milliseconds(10000));
  if (!connected.ok()) {
    std::fprintf(stderr, "socket leg connect failed: %s\n",
                 connected.ToString().c_str());
    return result;
  }
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> received{0};
  std::atomic<bool> writer_done{false};
  Timer timer;
  std::thread writer([&] {
    Rng rng(seed);
    const ZipfSampler zipf(PairUniverse(g.NumVertices()),
                           zipf_s > 0.0 ? zipf_s : 0.0);
    const auto start = std::chrono::steady_clock::now();
    const auto stop_at =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
    const auto interval =
        std::chrono::duration<double>(static_cast<double>(pipeline) /
                                      (offered_qps > 0.0 ? offered_qps : 1.0));
    auto next = start;
    std::string block;
    // Wall clock bounds the loop (not `next`): at saturating offered rates
    // the schedule lags real time and the leg must still end on time.
    while (std::chrono::steady_clock::now() < stop_at) {
      std::this_thread::sleep_until(next);
      if (sent.load(std::memory_order_relaxed) -
              received.load(std::memory_order_relaxed) >
          kMaxInflight) {
        // Saturated: hold the schedule, let the window drain a little.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        next += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(interval);
        continue;
      }
      block.clear();
      for (size_t i = 0; i < pipeline; ++i) {
        VertexId s, t;
        if (zipf_s > 0.0) {
          std::tie(s, t) = PairForRank(zipf.Sample(rng), g.NumVertices());
        } else {
          s = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
          t = static_cast<VertexId>(rng.UniformIndex(g.NumVertices()));
        }
        block += "QUERY " + std::to_string(s) + " " + std::to_string(t) +
                 "\n";
      }
      if (!client.Send(block).ok()) break;
      sent.fetch_add(pipeline, std::memory_order_relaxed);
      next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          interval);
    }
    writer_done.store(true, std::memory_order_release);
    client.ShutdownWrite();
  });
  // Reader: every answer line closes one request.
  while (true) {
    auto line = client.ReadLine();
    if (!line.ok()) break;
    received.fetch_add(1, std::memory_order_relaxed);
    if (writer_done.load(std::memory_order_acquire) &&
        received.load(std::memory_order_relaxed) >=
            sent.load(std::memory_order_relaxed)) {
      break;
    }
  }
  writer.join();
  const double elapsed = timer.ElapsedSeconds();
  result.sent = sent.load();
  result.received = received.load();
  result.achieved_qps =
      elapsed > 0.0 ? static_cast<double>(result.received) / elapsed : 0.0;
  return result;
}

struct SocketCacheReport {
  double probe_qps = 0.0;  // uncached capacity probe
  double offered_qps = 0.0;
  double qps_cached = 0.0;
  double qps_uncached = 0.0;
  double speedup = 0.0;
  double hit_rate = 0.0;
  uint64_t evicted_slow = 0;
};

/// Cache A/B over the socket: Dijkstra-only backend (so a miss costs a
/// real shortest-path computation), Zipf(s) stream, offered load pinned at
/// a multiple of the uncached capacity. The cached variant absorbs the hot
/// head locally and reports the resulting throughput ratio.
SocketCacheReport RunSocketCacheAb(const Graph& g, size_t threads,
                                   size_t batch, double zipf_s,
                                   size_t pipeline, double seconds) {
  SocketCacheReport report;
  // Probe the uncached capacity with a short closed-loop burst.
  auto uncached = StartSocketServer(g, nullptr, threads, batch, 0);
  if (uncached == nullptr) return report;
  report.probe_qps = SocketClosedLoopQps(uncached->port(), g, zipf_s,
                                         pipeline, std::min(seconds, 0.5),
                                         41);
  const double offered = std::max(report.probe_qps * 8.0, 1000.0);
  report.offered_qps = offered;
  const SocketLegResult plain = RunSocketOpenLoop(
      uncached->port(), g, zipf_s, pipeline, offered, seconds, 42);
  report.qps_uncached = plain.achieved_qps;
  uncached->Stop();

  auto cached = StartSocketServer(g, nullptr, threads, batch, 1 << 16);
  if (cached == nullptr) return report;
  const SocketLegResult warm = RunSocketOpenLoop(
      cached->port(), g, zipf_s, pipeline, offered, seconds, 42);
  report.qps_cached = warm.achieved_qps;
  const serve::CacheStats stats = cached->cache->Stats();
  report.hit_rate = stats.hit_rate;
  report.evicted_slow = cached->server->Stats().evicted_slow;
  cached->Stop();
  report.speedup = report.qps_uncached > 0.0
                       ? report.qps_cached / report.qps_uncached
                       : 0.0;
  return report;
}

struct SocketBrownoutReport {
  double healthy_qps = 0.0;
  double faulted_qps = 0.0;
  double recovered_qps = 0.0;
  bool served_through_fault = false;
};

/// The brownout drill over the socket path: flood one pipelined connection,
/// fault the learned primary for the middle third, and confirm the exact
/// fallback keeps answers flowing end to end (not just inside the engine).
SocketBrownoutReport RunSocketBrownout(const Graph& g, const Rne& model,
                                       size_t threads, size_t batch,
                                       double zipf_s, size_t pipeline,
                                       double seconds) {
  SocketBrownoutReport report;
  auto server = StartSocketServer(g, &model, threads, batch, 0);
  if (server == nullptr) return report;
  net::BlockingClient client;
  if (!client.Connect("127.0.0.1", server->port(),
                      std::chrono::milliseconds(10000))
           .ok()) {
    server->Stop();
    return report;
  }
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> received{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(57);
    const ZipfSampler zipf(PairUniverse(g.NumVertices()),
                           zipf_s > 0.0 ? zipf_s : 1.0);
    std::string block;
    while (!stop.load(std::memory_order_acquire)) {
      if (sent.load(std::memory_order_relaxed) -
              received.load(std::memory_order_relaxed) >
          4 * pipeline) {
        // Keep the in-flight window small so the post-run drain (and the
        // windowed qps measurements) track the server, not socket buffers.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      block.clear();
      for (size_t i = 0; i < pipeline; ++i) {
        const auto [s, t] = PairForRank(zipf.Sample(rng), g.NumVertices());
        block += "QUERY " + std::to_string(s) + " " + std::to_string(t) +
                 "\n";
      }
      if (!client.Send(block).ok()) break;
      sent.fetch_add(pipeline, std::memory_order_relaxed);
    }
    client.ShutdownWrite();
  });
  std::thread reader([&] {
    while (client.ReadLine().ok()) {
      received.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const auto window_qps = [&](double secs) {
    const uint64_t before = received.load(std::memory_order_relaxed);
    Timer timer;
    std::this_thread::sleep_for(std::chrono::duration<double>(secs));
    return static_cast<double>(received.load(std::memory_order_relaxed) -
                               before) /
           timer.ElapsedSeconds();
  };
  const double phase = seconds / 3.0;
  report.healthy_qps = window_qps(phase);
  fault::RuntimeFaultConfig outage;
  outage.error_probability = 1.0;
  fault::ArmRuntimeFaultsAt("serve.backend.rne", outage);
  report.faulted_qps = window_qps(phase);
  fault::DisarmRuntimeFaults();
  report.recovered_qps = window_qps(phase);
  report.served_through_fault = report.faulted_qps > 0.0;
  stop.store(true, std::memory_order_release);
  writer.join();
  reader.join();
  server->Stop();
  return report;
}

/// Pure client mode (--connect): drive an external rne_server with a
/// pipelined Zipf stream, then print its STATS line. Exit 0 only when
/// every query got a non-ERR answer.
int RunConnectClient(const std::string& target, size_t queries,
                     size_t pipeline, size_t vertices, double zipf_s) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "error: --connect expects host:port\n");
    return 1;
  }
  const std::string host = target.substr(0, colon);
  const long port = std::strtol(target.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "error: bad port in --connect\n");
    return 1;
  }
  net::BlockingClient client;
  const Status connected = client.Connect(
      host, static_cast<uint16_t>(port), std::chrono::milliseconds(30000));
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n", connected.ToString().c_str());
    return 1;
  }
  Rng rng(91);
  const ZipfSampler zipf(PairUniverse(vertices), zipf_s > 0.0 ? zipf_s : 1.0);
  uint64_t answered = 0;
  uint64_t errors = 0;
  Timer timer;
  size_t remaining = queries;
  while (remaining > 0) {
    const size_t burst = std::min(pipeline, remaining);
    std::string block;
    for (size_t i = 0; i < burst; ++i) {
      const auto [s, t] = PairForRank(zipf.Sample(rng), vertices);
      block += "QUERY " + std::to_string(s) + " " + std::to_string(t) + "\n";
    }
    if (const Status sent = client.Send(block); !sent.ok()) {
      std::fprintf(stderr, "error: %s\n", sent.ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < burst; ++i) {
      auto line = client.ReadLine();
      if (!line.ok()) {
        std::fprintf(stderr, "error: %s\n", line.status().ToString().c_str());
        return 1;
      }
      ++answered;
      if (line.value().rfind("ERR", 0) == 0) ++errors;
    }
    remaining -= burst;
  }
  const double elapsed = timer.ElapsedSeconds();
  if (!client.Send("STATS\n").ok()) return 1;
  auto stats = client.ReadLine();
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", stats.value().c_str());
  std::printf("socket client: %llu/%zu answered, %llu errors, %.0f q/s\n",
              static_cast<unsigned long long>(answered), queries,
              static_cast<unsigned long long>(errors),
              elapsed > 0.0 ? static_cast<double>(answered) / elapsed : 0.0);
  return errors == 0 && answered == queries ? 0 : 1;
}

// ---------------------------------------------------------------------------
// mmap leg: per-mode child probes with bit-exact answer comparison.

/// VmRSS/VmHWM in kB from /proc/self/status (zeros when unavailable).
struct ProcessRss {
  uint64_t rss_kb = 0;
  uint64_t hwm_kb = 0;
};

ProcessRss ReadProcessRss() {
  ProcessRss out;
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return out;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) out.rss_kb = kb;
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) out.hwm_kb = kb;
  }
  std::fclose(f);
  return out;
}

/// Child entry point (--mmap-probe <mode>): load the model under one load
/// mode, answer a deterministic query stream, and print one parseable
/// MMAP_PROBE line. The answer CRC covers the raw double bytes, so the
/// parent's cross-mode equality check is bit-exact, never tolerance-based.
int RunMmapProbe(const std::string& mode, const std::string& model_path,
                 size_t queries) {
  if (mode != "heap" && mode != "mmap") {
    std::fprintf(stderr, "error: --mmap-probe expects heap|mmap\n");
    return 1;
  }
  const LoadMode load = mode == "mmap" ? LoadMode::kMmap : LoadMode::kHeap;
  const ProcessRss before = ReadProcessRss();
  Timer load_timer;
  auto model = Rne::Load(model_path, load);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  const double load_ms = load_timer.ElapsedSeconds() * 1000.0;
  const ProcessRss after_load = ReadProcessRss();
  const size_t n = model.value().NumVertices();
  // First query: a mapped model pages its first rows back in here.
  const auto [s0, t0] = PairForRank(0, n);
  Timer first_timer;
  double answer = model.value().Query(s0, t0);
  const double first_query_us =
      static_cast<double>(first_timer.ElapsedNanos()) / 1000.0;
  uint32_t crc = Crc32c(&answer, sizeof(answer));
  for (size_t i = 1; i < queries; ++i) {
    const auto [s, t] = PairForRank(i, n);
    answer = model.value().Query(s, t);
    crc = Crc32cExtend(crc, &answer, sizeof(answer));
  }
  const ProcessRss end = ReadProcessRss();
  std::printf(
      "MMAP_PROBE mode=%s mapped=%d load_ms=%.3f first_query_us=%.1f "
      "load_rss_delta_kb=%lld vm_rss_kb=%llu vm_hwm_kb=%llu "
      "answer_crc=%08x\n",
      mode.c_str(), model.value().IsMapped() ? 1 : 0, load_ms,
      first_query_us,
      static_cast<long long>(after_load.rss_kb) -
          static_cast<long long>(before.rss_kb),
      static_cast<unsigned long long>(end.rss_kb),
      static_cast<unsigned long long>(end.hwm_kb), crc);
  return 0;
}

struct MmapProbeResult {
  bool ok = false;
  bool mapped = false;
  double load_ms = 0.0;
  double first_query_us = 0.0;
  long long load_rss_delta_kb = 0;
  uint64_t vm_rss_kb = 0;
  uint64_t vm_hwm_kb = 0;
  std::string answer_crc;
};

/// Runs `argv0 --mmap-probe <mode>` as a child process — each mode gets a
/// fresh RSS baseline — and parses its MMAP_PROBE line.
MmapProbeResult RunMmapProbeChild(const std::string& argv0,
                                  const std::string& mode,
                                  const std::string& model_path,
                                  size_t queries) {
  MmapProbeResult out;
  const std::string cmd = "\"" + argv0 + "\" --mmap-probe " + mode +
                          " --model \"" + model_path + "\" --probe-queries " +
                          std::to_string(queries);
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char line[512];
  std::string probe_line;
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    if (std::strncmp(line, "MMAP_PROBE ", 11) == 0) probe_line = line;
  }
  const int status = pclose(pipe);
  if (status != 0 || probe_line.empty()) return out;
  char mode_buf[16] = {0};
  int mapped = 0;
  long long delta = 0;
  unsigned long long rss = 0, hwm = 0;
  char crc[16] = {0};
  if (std::sscanf(probe_line.c_str(),
                  "MMAP_PROBE mode=%15s mapped=%d load_ms=%lf "
                  "first_query_us=%lf load_rss_delta_kb=%lld vm_rss_kb=%llu "
                  "vm_hwm_kb=%llu answer_crc=%8s",
                  mode_buf, &mapped, &out.load_ms, &out.first_query_us,
                  &delta, &rss, &hwm, crc) != 8) {
    return out;
  }
  out.mapped = mapped != 0;
  out.load_rss_delta_kb = delta;
  out.vm_rss_kb = rss;
  out.vm_hwm_kb = hwm;
  out.answer_crc = crc;
  out.ok = true;
  return out;
}

void AppendProbeJson(std::string* out, const char* key,
                     const MmapProbeResult& p) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "    \"%s\": {\"mapped\": %s, \"load_ms\": %.3f, "
                "\"first_query_us\": %.1f, \"load_rss_delta_kb\": %lld, "
                "\"vm_rss_kb\": %llu, \"vm_hwm_kb\": %llu, "
                "\"answer_crc\": \"%s\"}",
                key, p.mapped ? "true" : "false", p.load_ms,
                p.first_query_us, p.load_rss_delta_kb,
                static_cast<unsigned long long>(p.vm_rss_kb),
                static_cast<unsigned long long>(p.vm_hwm_kb),
                p.answer_crc.c_str());
  *out += buf;
}

void AppendPointJson(std::string* out, const SweepPoint& p) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"threads\": %zu, \"batch\": %zu, "
                "\"achieved_qps\": %.1f, \"served\": %llu, "
                "\"fell_back_load\": %llu, "
                "\"p50_ns\": %.0f, \"p95_ns\": %.0f, \"p99_ns\": %.0f}",
                p.threads, p.batch, p.achieved_qps,
                static_cast<unsigned long long>(p.metrics.served),
                static_cast<unsigned long long>(p.metrics.fell_back_load),
                p.metrics.p50_ns, p.metrics.p95_ns, p.metrics.p99_ns);
  *out += buf;
}

int Main(int argc, char** argv) {
  auto parsed = ArgParser::Parse(argc, argv, 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const ArgParser& args = parsed.value();
  FlagReader flags(args);
  const auto rows = static_cast<size_t>(flags.Int("rows", 64));
  const auto cols = static_cast<size_t>(flags.Int("cols", 64));
  const auto dim = static_cast<size_t>(flags.Int("dim", 32));
  const double seconds = flags.Real("seconds", 1.0);
  const double brownout_seconds = flags.Real("brownout-seconds", 1.5);
  const auto threads = ParseSizeList(args.Get("threads", "1,2,4"));
  const auto batches = ParseSizeList(args.Get("batches", "1,16,64,256"));
  const double zipf_s = flags.Real("zipf", 0.0);
  const double socket_seconds = flags.Real("socket-seconds", seconds);
  const auto pipeline = static_cast<size_t>(flags.Int("pipeline", 64));
  const std::string connect = args.Get("connect", "");
  const auto queries = static_cast<size_t>(flags.Int("queries", 1000));
  const auto vertices = static_cast<size_t>(flags.Int("vertices", 4096));
  const std::string mmap_probe = args.Get("mmap-probe", "");
  const auto probe_queries =
      static_cast<size_t>(flags.Int("probe-queries", 512));
  const std::string out_path =
      args.Get("out", ResultsDir() + "/serve_report.json");
  if (!flags.status().ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return 1;
  }

  if (!mmap_probe.empty()) {
    return RunMmapProbe(mmap_probe, args.Get("model", ""), probe_queries);
  }
  if (!connect.empty()) {
    return RunConnectClient(connect, queries, pipeline, vertices, zipf_s);
  }

  RoadNetworkConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.seed = 11;
  const Graph g = MakeRoadNetwork(cfg);
  std::printf("grid %zux%zu: %zu vertices, %zu edges\n", rows, cols,
              g.NumVertices(), g.NumEdges());

  std::printf("training RNE d=%zu...\n", dim);
  std::fflush(stdout);
  RneConfig config = DefaultRneConfig(dim, g.NumVertices());
  const Rne model = Rne::Build(g, config);

  std::error_code ec;
  std::filesystem::create_directories(ResultsDir(), ec);
  const std::string model_path = ResultsDir() + "/cache/serve_bench.model";
  std::filesystem::create_directories(ResultsDir() + "/cache", ec);
  if (const Status st = model.Save(model_path); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }

  // mmap leg: the same model file re-loaded per mode in a child process.
  const MmapProbeResult probe_heap =
      RunMmapProbeChild(argv[0], "heap", model_path, probe_queries);
  const MmapProbeResult probe_mmap =
      RunMmapProbeChild(argv[0], "mmap", model_path, probe_queries);
  const bool ran_mmap = probe_heap.ok && probe_mmap.ok;
  if (ran_mmap) {
    std::printf(
        "mmap leg (%zu queries): heap load %.1fms rss+%lldkB | mmap load "
        "%.1fms rss+%lldkB first-query %.0fus\n",
        probe_queries, probe_heap.load_ms, probe_heap.load_rss_delta_kb,
        probe_mmap.load_ms, probe_mmap.load_rss_delta_kb,
        probe_mmap.first_query_us);
    if (probe_heap.answer_crc != probe_mmap.answer_crc) {
      std::fprintf(stderr,
                   "error: mmap-served answers are not bit-identical to the "
                   "heap path (crc heap=%s mmap=%s)\n",
                   probe_heap.answer_crc.c_str(),
                   probe_mmap.answer_crc.c_str());
      return 1;
    }
  } else {
    std::fprintf(stderr, "warning: mmap leg skipped (probe failed)\n");
  }

  std::vector<SweepPoint> points;
  for (const size_t t : threads) {
    for (const size_t b : batches) {
      SweepPoint p = RunClosedLoop(model, g, t, b, seconds, zipf_s);
      std::printf("closed t=%zu b=%zu: %.0f q/s p50=%.0fns p99=%.0fns\n",
                  p.threads, p.batch, p.achieved_qps, p.metrics.p50_ns,
                  p.metrics.p99_ns);
      std::fflush(stdout);
      points.push_back(std::move(p));
    }
  }
  // The fastest closed-loop point sets the threads and batch of the legs
  // below.
  double best_qps = 0.0;
  size_t best_threads = 1, best_batch = 1;
  for (const auto& p : points) {
    if (p.achieved_qps > best_qps) {
      best_qps = p.achieved_qps;
      best_threads = p.threads;
      best_batch = p.batch;
    }
  }

  // Socket legs: the same engine behind the epoll front end, driven over
  // loopback. The cache A/B always uses Zipf(1.0) unless --zipf overrides
  // it — with a uniform stream a result cache is pointless by design.
  SocketCacheReport socket_cache;
  bool ran_socket_cache = false;
  if (socket_seconds > 0.0) {
    const double ab_zipf = zipf_s > 0.0 ? zipf_s : 1.0;
    socket_cache = RunSocketCacheAb(g, best_threads, best_batch, ab_zipf,
                                    pipeline, socket_seconds);
    ran_socket_cache = true;
    std::printf(
        "socket cache A/B (zipf %.2f): uncached %.0f q/s -> cached %.0f "
        "q/s (%.1fx), hit rate %.2f\n",
        ab_zipf, socket_cache.qps_uncached, socket_cache.qps_cached,
        socket_cache.speedup, socket_cache.hit_rate);
    std::fflush(stdout);
  }
  SocketBrownoutReport socket_brownout;
  bool ran_socket_brownout = false;
  if (socket_seconds > 0.0 && brownout_seconds > 0.0) {
    socket_brownout =
        RunSocketBrownout(g, model, best_threads, best_batch, zipf_s,
                          pipeline, std::max(brownout_seconds, 0.6));
    ran_socket_brownout = true;
    std::printf(
        "socket brownout: healthy %.0f q/s -> faulted %.0f q/s -> "
        "recovered %.0f q/s (%s through the fault)\n",
        socket_brownout.healthy_qps, socket_brownout.faulted_qps,
        socket_brownout.recovered_qps,
        socket_brownout.served_through_fault ? "served" : "STALLED");
    std::fflush(stdout);
  }

  std::string json = "{\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"dataset\": {\"rows\": %zu, \"cols\": %zu, "
                "\"vertices\": %zu, \"edges\": %zu},\n"
                "  \"model\": {\"dim\": %zu, \"index_bytes\": %zu},\n"
                "  \"best\": {\"threads\": %zu, \"batch\": %zu, "
                "\"qps\": %.0f},\n"
                "  \"sweep\": [\n",
                rows, cols, g.NumVertices(), g.NumEdges(), dim,
                model.IndexBytes(), best_threads, best_batch, best_qps);
  json += buf;
  for (size_t i = 0; i < points.size(); ++i) {
    AppendPointJson(&json, points[i]);
    json += i + 1 < points.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  if (ran_socket_cache) {
    std::snprintf(
        buf, sizeof(buf),
        "  \"socket_cache\": {\"probe_qps\": %.1f, \"offered_qps\": %.1f, "
        "\"qps_uncached\": %.1f, \"qps_cached\": %.1f, \"speedup\": %.2f, "
        "\"hit_rate\": %.4f, \"evicted_slow\": %llu},\n",
        socket_cache.probe_qps, socket_cache.offered_qps,
        socket_cache.qps_uncached, socket_cache.qps_cached,
        socket_cache.speedup, socket_cache.hit_rate,
        static_cast<unsigned long long>(socket_cache.evicted_slow));
    json += buf;
  }
  if (ran_socket_brownout) {
    std::snprintf(
        buf, sizeof(buf),
        "  \"brownout_socket\": {\"healthy_qps\": %.1f, "
        "\"faulted_qps\": %.1f, \"recovered_qps\": %.1f, "
        "\"served_through_fault\": %s},\n",
        socket_brownout.healthy_qps, socket_brownout.faulted_qps,
        socket_brownout.recovered_qps,
        socket_brownout.served_through_fault ? "true" : "false");
    json += buf;
  }
  if (ran_mmap) {
    std::snprintf(buf, sizeof(buf),
                  "  \"mmap\": {\"queries\": %zu, \"parity\": true,\n",
                  probe_queries);
    json += buf;
    AppendProbeJson(&json, "heap", probe_heap);
    json += ",\n";
    AppendProbeJson(&json, "mmap", probe_mmap);
    json += "\n  },\n";
  }
  // Process-global registry (per-backend latency histograms, persistence
  // and kNN counters accumulated across the whole sweep).
  json += "  \"metrics\": " + obs::MetricsRegistry::Global().ToJson() + "\n";
  json += "}\n";

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s (best %.0f q/s)\n", out_path.c_str(), best_qps);
  return 0;
}

}  // namespace
}  // namespace rne::bench

int main(int argc, char** argv) { return rne::bench::Main(argc, argv); }
