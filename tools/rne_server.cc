// Resident query server: builds a fallback chain of distance backends once,
// one after another at startup, then serves batched requests — from stdin
// until EOF (default), or over TCP with --listen — the serving counterpart
// of one-shot `rne_tool query`, which pays a full index load per
// invocation.
//
//   rne_server --model city.rne --gr net.gr [--co net.co]
//              [--backends rne,dijkstra] [--threads 4]
//              [--deadline-us 0] [--batch 64]
//              [--listen <port>] [--max-conns 1024] [--idle-timeout-ms 0]
//              [--cache 65536] [--cache-shards 16]
//              [--mmap]
//
// --backends is the fallback chain, primary first: a request skips a
// backend that failed to load or fails at dispatch, and is answered by the
// next one. --deadline-us bounds each request from the start of its batch:
// past it a still-queued request fails fast and retries stop.
//
// In flight: each stdin loop or connection has one batch (--batch
// requests) in the engine at a time, which bounds what the engine holds;
// every QUERY and KNN gets an answer line.
//
// --mmap serves model files zero-copy from a read-only mapping; every
// section checksum is verified when the file is mapped, at startup and on
// each RELOAD, so a published model is always a checked one.
//
// The line protocol (QUERY/KNN/STATS/METRICS/RELOAD) lives in
// serve/server_loop.h; this binary only parses flags, builds the engine,
// and wires the loop to stdin/stdout or to the epoll front end in
// net/tcp_server.h (--listen; port 0 picks an ephemeral port, printed on
// stderr as "listening on 127.0.0.1:<port>").
//
// Threads: --threads sizes the engine's worker pool. Under --listen the
// main thread only accepts, and as many reactor threads as workers each
// own a share of the connections. A reactor runs its batches of learned
// distance answers itself, with no pool hand-off. A batch of more than 32
// searches (one engine chunk: KNN requests, or QUERYs an exact backend
// answers, as under --backends dijkstra or while the rne primary fails)
// fans out: the reactor and pool helpers claim blocks of it from one
// counter, so the reactor searches its own batch too while the other
// reactors parse, format and write. The stdin loop runs on the main
// thread and claims blocks of its fanned batches the same way.
//
// --cache puts a sharded LRU result cache (serve/result_cache.h) in front
// of the engine for both front ends; 0 disables it. It caches only answers
// that cost a search: KNN lists, and QUERY answers from an exact backend.
// A learned QUERY answer (one L1 kernel) is cheaper than the lookup, so it
// is neither looked up nor stored, and STATS counts cache hits and misses
// over looked-up requests only. Memory: the index (8-16 bytes per entry,
// 512 KB for the default 65,536) is allocated at start; slots (88 bytes
// each, up to 5.8 MB at the default) are touched only as entries are
// stored, so a learned QUERY stream keeps none resident. Cached kNN lists
// add their own size. A successful RELOAD invalidates the cache, so a swap
// never serves a stale answer.
//
// With --model the "rne" backend is served through a ModelManager, so the
// RELOAD verb hot-swaps the model without restarting. SIGINT/SIGTERM drain
// gracefully: stop reading (the handlers install without SA_RESTART so
// blocked reads/epoll_waits return with EINTR), flush in-flight batches,
// write buffered answers, print final stats.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/dimacs.h"
#include "net/tcp_server.h"
#include "serve/model_manager.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/server_loop.h"
#include "util/arg_parser.h"

namespace rne::serve {
namespace {

std::atomic<bool> g_shutdown{false};

void HandleShutdownSignal(int) {
  g_shutdown.store(true, std::memory_order_release);
}

/// SIGINT/SIGTERM set the drain flag. Deliberately NO SA_RESTART: the
/// signal must interrupt the blocking stdin read (EINTR) so the loop
/// observes the flag instead of waiting for the next input line.
void InstallShutdownHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

std::vector<std::string> SplitCommas(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int Main(int argc, char** argv) {
  auto parsed = ArgParser::Parse(argc, argv, 1, {"mmap"});
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const ArgParser& args = parsed.value();
  const Status known = args.RequireKnown(
      {"model", "gr", "co", "backends", "threads", "deadline-us", "batch",
       "seed", "listen", "max-conns", "idle-timeout-ms", "cache",
       "cache-shards", "mmap"});
  if (!known.ok()) return Fail(known.ToString());
  FlagReader flags(args);
  EngineOptions options;
  options.num_threads = static_cast<size_t>(flags.Int("threads", 0));
  options.default_deadline =
      std::chrono::microseconds(flags.Int("deadline-us", 0));
  ServerLoopOptions loop_options;
  loop_options.batch = static_cast<size_t>(flags.Int("batch", 64));
  const auto seed = static_cast<uint64_t>(flags.Int("seed", 1));
  const bool listen = args.Has("listen");
  const long listen_port = flags.Int("listen", 0);
  const long max_conns = flags.Int("max-conns", 1024);
  const long idle_timeout_ms = flags.Int("idle-timeout-ms", 0);
  const long cache_entries = flags.Int("cache", 65536);
  const long cache_shards = flags.Int("cache-shards", 16);
  if (!flags.status().ok()) return Fail(flags.status().ToString());
  if (listen_port < 0 || listen_port > 65535) {
    return Fail("--listen expects a port in [0, 65535]");
  }
  if (cache_entries < 0) return Fail("--cache expects a non-negative count");

  Graph graph;
  BackendContext ctx;
  ctx.model_path = args.Get("model", "");
  ctx.seed = seed;
  if (args.Has("mmap")) ctx.load = LoadMode::kMmap;
  if (args.Has("gr")) {
    auto loaded = LoadDimacs(args.Get("gr", ""), args.Get("co", ""));
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    graph = std::move(loaded).value();
    ctx.graph = &graph;
  }

  // Declared before the engine: backends created from the manager hold a
  // pointer into it, so it must be destroyed after the engine.
  ModelManager::Options manager_options;
  manager_options.num_workers = options.num_threads == 0
                                    ? std::thread::hardware_concurrency()
                                    : options.num_threads;
  manager_options.load = ctx.load;
  ModelManager manager(manager_options);

  QueryEngine engine(options);
  const auto names = SplitCommas(args.Get("backends", "rne,dijkstra"));
  if (names.empty()) return Fail("--backends must name at least one backend");
  bool managed_rne = false;
  for (const auto& name : names) {
    if (name == "rne" && !ctx.model_path.empty()) {
      // Serve the learned backend through the manager so RELOAD can swap
      // the model in place. A failed initial load is a warning, not fatal:
      // the rest of the chain serves and RELOAD can fix it later.
      const Status first = manager.Load(ctx.model_path);
      if (!first.ok()) {
        std::fprintf(stderr,
                     "warning: model load failed (%s); 'rne' joins the "
                     "chain unpublished until a successful RELOAD\n",
                     first.ToString().c_str());
      }
      engine.AddReadyBackend(manager.MakeManagedBackend());
      managed_rne = true;
    } else {
      engine.AddBackend(name, ctx);
    }
  }
  const Status loaded = engine.WaitUntilLoaded();
  if (!loaded.ok()) {
    std::fprintf(stderr,
                 "warning: backend load failed (%s); serving via the rest "
                 "of the chain\n",
                 loaded.ToString().c_str());
  }
  if (managed_rne) loop_options.model_manager = &manager;
  loop_options.stop = &g_shutdown;

  // Result cache, shared by both front ends. After the initial load above,
  // every model swap is a RELOAD, which invalidates it.
  std::unique_ptr<ResultCache> cache;
  if (cache_entries > 0) {
    ResultCacheOptions cache_options;
    cache_options.capacity = static_cast<size_t>(cache_entries);
    cache_options.num_shards = static_cast<size_t>(
        cache_shards <= 0 ? 1 : cache_shards);
    cache = std::make_unique<ResultCache>(cache_options);
    loop_options.cache = cache.get();
  }

  InstallShutdownHandlers();
  std::fprintf(stderr,
               "rne_server ready: %zu backend(s), %zu worker(s)%s, cache=%ld\n",
               engine.num_backends(), engine.pool().num_threads(),
               managed_rne ? ", hot reload enabled" : "", cache_entries);

  if (listen) {
    net::TcpServerOptions server_options;
    server_options.port = static_cast<uint16_t>(listen_port);
    server_options.max_connections = static_cast<size_t>(max_conns);
    server_options.idle_timeout = std::chrono::milliseconds(idle_timeout_ms);
    server_options.loop = loop_options;
    net::TcpServer server(engine, server_options);
    const Status started = server.Start();
    if (!started.ok()) return Fail(started.ToString());
    std::fprintf(stderr, "listening on 127.0.0.1:%u\n", server.port());
    const Status served = server.Serve();
    if (!served.ok()) return Fail(served.ToString());
    const auto stats = server.Stats();
    std::fprintf(stderr,
                 "rne_server draining: %s, buffered answers written\n",
                 g_shutdown.load(std::memory_order_acquire)
                     ? "signal received"
                     : "shutdown requested");
    std::fprintf(stderr,
                 "rne_server done: %llu line(s) over %llu connection(s), "
                 "metrics %s\n",
                 static_cast<unsigned long long>(stats.lines),
                 static_cast<unsigned long long>(stats.accepted),
                 engine.Metrics().ToJson().c_str());
    return 0;
  }

  const size_t lines = RunServerLoop(std::cin, std::cout, engine, loop_options);
  if (g_shutdown.load(std::memory_order_acquire)) {
    std::fprintf(stderr,
                 "rne_server draining: signal received, in-flight batch "
                 "flushed\n");
  }
  std::fprintf(stderr, "rne_server done: %zu line(s) processed, metrics %s\n",
               lines, engine.Metrics().ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace rne::serve

int main(int argc, char** argv) { return rne::serve::Main(argc, argv); }
