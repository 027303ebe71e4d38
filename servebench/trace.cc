// Traced in-process run of the serving benchmark: replays one workload's
// request stream through each serving layer's public entry point and
// reports time per request per layer, self times, and the remainder no
// layer accounts for.
//
// Layers, bottom up (each a span around one call into the layer, recorded
// here in the benchmark and not inside the program):
//
//   core      Rne::Query / RneIndex::Knn on the published snapshot
//   backend   ModelManager::MakeManagedBackend() Distance / Knn
//   engine    QueryEngine::QueryBatch, one server batch at a time
//   cache     CachedEngine::QueryBatch over a ResultCache
//   protocol  LineProtocolHandler::Consume + Flush over the batch's wire bytes
//   net       round trip through an in-process net::TcpServer over loopback
//   e2e       the same round trip against the rne_server process (--port)
//
// The stack mirrors rne_server: managed "rne" backend first, exact
// "dijkstra" fallback second, the same worker count, batch size and cache
// capacity. Every layer runs on its own copy of the same stream (and its own
// cache), so each sees the same requests and the same hit pattern. Rounds
// interleave the layers until --seconds have passed; each metric is the
// median over rounds.
//
//   servebench_trace --gr net.gr --co net.co --model city.rne --port <p>
//       --kind query --dist uniform --seed 1 --seconds 10 --cache 65536
//       [--batch 64] [--threads 2] [--reload-every 0]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/kernels.h"
#include "graph/dimacs.h"
#include "net/client.h"
#include "net/fd.h"
#include "net/tcp_server.h"
#include "serve/model_manager.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/server_loop.h"
#include "util/arg_parser.h"
#include "workload.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

double NanosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

rne::serve::Request ToServe(const Req& r) {
  rne::serve::Request out;
  out.kind = r.kind == Kind::kQuery ? rne::serve::RequestKind::kDistance
                                    : rne::serve::RequestKind::kKnn;
  out.s = r.s;
  if (r.kind == Kind::kQuery) {
    out.t = r.t;
  } else {
    out.k = r.t;
  }
  return out;
}

/// Sends `bytes` and reads until `lines` answer lines arrived. Returns the
/// number of answer lines that are not DIST/KNN (errors), or -1 when the
/// connection failed.
long RoundTrip(int fd, const std::string& bytes, size_t lines,
               std::string* scratch) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = rne::net::WriteFd(fd, bytes.data() + off,
                                        bytes.size() - off);
    if (n <= 0) return -1;
    off += static_cast<size_t>(n);
  }
  scratch->clear();
  size_t seen = 0;
  long bad = 0;
  size_t line_start = 0;
  char buf[64 * 1024];
  while (seen < lines) {
    const ssize_t n = rne::net::ReadFd(fd, buf, sizeof(buf));
    if (n <= 0) return -1;
    scratch->append(buf, static_cast<size_t>(n));
    size_t nl;
    while ((nl = scratch->find('\n', line_start)) != std::string::npos) {
      const std::string_view line(scratch->data() + line_start,
                                  nl - line_start);
      if (line.substr(0, 5) != "DIST " && line.substr(0, 3) != "KNN" &&
          line.substr(0, 9) != "RELOAD OK") {
        ++bad;
      }
      ++seen;
      line_start = nl + 1;
    }
  }
  return bad;
}

/// One layer's replay state: its own copy of the request stream and a
/// request counter that places the reload points.
struct LayerStream {
  LayerStream(const Spec& spec, uint64_t seed)
      : stream(spec, seed, kClosedStream) {}
  std::vector<Req> NextChunk(size_t n) {
    std::vector<Req> out(n);
    for (Req& r : out) r = stream.Next();
    return out;
  }
  RequestStream stream;
  uint64_t done = 0;
  uint64_t next_reload = 0;
};

struct Options {
  Spec spec;
  uint64_t seed = 1;
  double seconds = 10.0;
  size_t cache = 65536;
  size_t batch = 64;
  size_t threads = 2;
  uint64_t reload_every = 0;
  uint16_t port = 0;
  std::string gr, co, model;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Run(const Options& opt) {
  auto graph = rne::LoadDimacs(opt.gr, opt.co);
  if (!graph.ok()) return Fail(graph.status().ToString());
  Spec spec = opt.spec;
  spec.vertices = graph.value().NumVertices();

  rne::serve::ModelManager::Options manager_options;
  manager_options.num_workers = opt.threads;
  rne::serve::ModelManager manager(manager_options);
  if (const auto st = manager.Load(opt.model); !st.ok()) {
    return Fail(st.ToString());
  }
  rne::serve::EngineOptions engine_options;
  engine_options.num_threads = opt.threads;
  rne::serve::QueryEngine engine(engine_options);
  engine.AddReadyBackend(manager.MakeManagedBackend());
  rne::serve::BackendContext ctx;
  ctx.graph = &graph.value();
  engine.AddBackend("dijkstra", ctx);
  if (const auto st = engine.WaitUntilLoaded(); !st.ok()) {
    return Fail(st.ToString());
  }
  auto backend = manager.MakeManagedBackend();

  auto make_cache = [&]() -> std::unique_ptr<rne::serve::ResultCache> {
    if (opt.cache == 0) return nullptr;
    rne::serve::ResultCacheOptions o;
    o.capacity = opt.cache;
    return std::make_unique<rne::serve::ResultCache>(o);
  };
  auto layer_cache = make_cache();
  auto protocol_cache = make_cache();
  auto net_cache = make_cache();
  rne::serve::CachedEngine cached(&engine, layer_cache.get());

  rne::serve::ServerLoopOptions loop;
  loop.batch = opt.batch;
  loop.model_manager = &manager;
  loop.cache = protocol_cache.get();
  rne::serve::LineProtocolHandler handler(engine, loop);

  rne::net::TcpServerOptions server_options;
  server_options.loop = loop;
  server_options.loop.cache = net_cache.get();
  rne::net::TcpServer server(engine, server_options);
  if (const auto st = server.Start(); !st.ok()) return Fail(st.ToString());
  std::thread reactor([&server] { (void)server.Serve(); });
  struct JoinOnExit {
    rne::net::TcpServer& server;
    std::thread& thread;
    ~JoinOnExit() {
      server.Shutdown();
      thread.join();
    }
  } join_on_exit{server, reactor};

  rne::net::BlockingClient net_client, e2e_client;
  const auto timeout = std::chrono::milliseconds(30000);
  if (const auto st = net_client.Connect("127.0.0.1", server.port(), timeout);
      !st.ok()) {
    return Fail(st.ToString());
  }
  if (const auto st = e2e_client.Connect("127.0.0.1", opt.port, timeout);
      !st.ok()) {
    return Fail(st.ToString());
  }

  const bool knn = spec.kind == Kind::kKnn;
  const size_t batches_per_round = knn ? 8 : 64;
  const size_t chunk = batches_per_round * opt.batch;
  const size_t k = spec.knn_k;

  LayerStream core_s(spec, opt.seed), backend_s(spec, opt.seed),
      engine_s(spec, opt.seed), cache_s(spec, opt.seed),
      protocol_s(spec, opt.seed), net_s(spec, opt.seed), e2e_s(spec, opt.seed);
  std::map<std::string, std::vector<double>> rounds;
  uint64_t failures = 0;
  std::string scratch, out;
  std::vector<rne::serve::Response> responses;
  double sink = 0.0;

  // Reload points: every `reload_every` requests a layer with a cache sees
  // the same invalidation a RELOAD causes in the server. The reload itself
  // is outside the timed spans; its cost is reported separately.
  auto reload_due = [&](LayerStream& ls) {
    if (opt.reload_every == 0 || ls.done < ls.next_reload) return false;
    ls.next_reload = ls.done + opt.reload_every;
    return true;
  };
  auto to_batches = [&](const std::vector<Req>& reqs) {
    std::vector<std::vector<rne::serve::Request>> batches;
    for (size_t b = 0; b < reqs.size(); b += opt.batch) {
      std::vector<rne::serve::Request> batch;
      for (size_t i = b; i < std::min(reqs.size(), b + opt.batch); ++i) {
        batch.push_back(ToServe(reqs[i]));
      }
      batches.push_back(std::move(batch));
    }
    return batches;
  };
  auto to_wire = [&](const std::vector<Req>& reqs) {
    std::vector<std::string> wires;
    for (size_t b = 0; b < reqs.size(); b += opt.batch) {
      std::string wire;
      for (size_t i = b; i < std::min(reqs.size(), b + opt.batch); ++i) {
        AppendWire(reqs[i], &wire);
      }
      wires.push_back(std::move(wire));
    }
    return wires;
  };
  auto check = [&](const std::vector<rne::serve::Response>& rs) {
    for (const auto& r : rs) failures += r.status.ok() ? 0 : 1;
  };

  uint64_t cache_hits0 = 0, cache_misses0 = 0;
  uint64_t net_bytes0 = server.Stats().bytes_out;
  uint64_t net_requests = 0;
  size_t num_rounds = 0;
  const auto start = Clock::now();
  while (num_rounds < 3 ||
         NanosSince(start) < opt.seconds * 1e9) {
    ++num_rounds;
    // core: the kernel on the published snapshot. The off-path kind (kNN on
    // a QUERY workload, QUERY on a kNN workload) is measured on pairs built
    // from the same sources so both metrics exist on every workload.
    {
      const auto reqs = core_s.NextChunk(chunk);
      core_s.done += chunk;
      const auto snap = manager.Current();
      const size_t off_n = knn ? chunk : std::max<size_t>(chunk / 64, 8);
      // Untimed pass: the layers above just evicted the model rows from the
      // CPU caches, which the server's reactor does not do between batches.
      for (const Req& r : reqs) sink += snap->model->Query(r.s, r.t);
      auto t0 = Clock::now();
      if (knn) {
        for (const Req& r : reqs) sink += snap->index->Knn(r.s, k).size();
      } else {
        for (const Req& r : reqs) sink += snap->model->Query(r.s, r.t);
      }
      const double on_path = NanosSince(t0) / static_cast<double>(chunk);
      t0 = Clock::now();
      for (size_t i = 0; i < off_n; ++i) {
        const Req& r = reqs[i];
        if (knn) {
          sink += snap->model->Query(r.s, reqs[(i + 1) % chunk].s);
        } else {
          sink += snap->index->Knn(r.s, k).size();
        }
      }
      const double off_path = NanosSince(t0) / static_cast<double>(off_n);
      rounds[knn ? "core.knn_ns" : "core.query_ns"].push_back(on_path);
      rounds[knn ? "core.query_ns" : "core.knn_ns"].push_back(off_path);
    }
    // backend: the managed adapter (snapshot acquire + kernel).
    {
      const auto reqs = backend_s.NextChunk(chunk);
      backend_s.done += chunk;
      const size_t off_n = knn ? chunk : std::max<size_t>(chunk / 64, 8);
      for (const Req& r : reqs) sink += backend->Distance(r.s, r.t);
      auto t0 = Clock::now();
      if (knn) {
        for (const Req& r : reqs) sink += backend->Knn(r.s, k).size();
      } else {
        for (const Req& r : reqs) sink += backend->Distance(r.s, r.t);
      }
      const double on_path = NanosSince(t0) / static_cast<double>(chunk);
      t0 = Clock::now();
      for (size_t i = 0; i < off_n; ++i) {
        const Req& r = reqs[i];
        if (knn) {
          sink += backend->Distance(r.s, reqs[(i + 1) % chunk].s);
        } else {
          sink += backend->Knn(r.s, k).size();
        }
      }
      const double off_path = NanosSince(t0) / static_cast<double>(off_n);
      rounds[knn ? "backend.knn_ns" : "backend.distance_ns"].push_back(
          on_path);
      rounds[knn ? "backend.distance_ns" : "backend.knn_ns"].push_back(
          off_path);
    }
    // engine: one QueryBatch per server batch.
    {
      const auto batches = to_batches(engine_s.NextChunk(chunk));
      engine_s.done += chunk;
      const auto t0 = Clock::now();
      for (const auto& b : batches) {
        if (!engine.QueryBatch(b, &responses).ok()) failures += b.size();
        check(responses);
      }
      rounds["engine.req_ns"].push_back(NanosSince(t0) /
                                        static_cast<double>(chunk));
    }
    // cache: CachedEngine in front of the engine. The engine calls it makes
    // for misses are its child spans; they are replayed afterwards to
    // measure how much of the cache span they cover.
    {
      const auto batches = to_batches(cache_s.NextChunk(chunk));
      std::vector<std::vector<rne::serve::Request>> misses;
      double timed = 0.0;
      for (const auto& b : batches) {
        if (reload_due(cache_s)) {
          if (!manager.Load(opt.model).ok()) ++failures;
          if (layer_cache != nullptr) layer_cache->Invalidate();
        }
        const auto t0 = Clock::now();
        if (!cached.QueryBatch(b, &responses).ok()) failures += b.size();
        timed += NanosSince(t0);
        cache_s.done += b.size();
        check(responses);
        std::vector<rne::serve::Request> miss;
        for (size_t i = 0; i < b.size(); ++i) {
          if (!responses[i].cached) miss.push_back(b[i]);
        }
        if (!miss.empty()) misses.push_back(std::move(miss));
      }
      const auto t0 = Clock::now();
      for (const auto& m : misses) {
        if (!engine.QueryBatch(m, &responses).ok()) failures += m.size();
      }
      rounds["cache.child_ns"].push_back(NanosSince(t0) /
                                         static_cast<double>(chunk));
      rounds["cache.req_ns"].push_back(timed / static_cast<double>(chunk));
    }
    // protocol: framing, parsing, cached engine, answer formatting.
    {
      const auto wires = to_wire(protocol_s.NextChunk(chunk));
      double timed = 0.0;
      for (const auto& w : wires) {
        if (reload_due(protocol_s)) {
          out.clear();
          handler.HandleLine("RELOAD", &out);
          if (out.rfind("RELOAD OK", 0) != 0) ++failures;
        }
        out.clear();
        const auto t0 = Clock::now();
        if (!handler.Consume(w, &out)) ++failures;
        handler.Flush(&out);
        timed += NanosSince(t0);
        protocol_s.done += opt.batch;
        if (static_cast<size_t>(std::count(out.begin(), out.end(), '\n')) !=
            opt.batch) {
          ++failures;
        }
      }
      rounds["protocol.req_ns"].push_back(timed / static_cast<double>(chunk));
    }
    // net and e2e: the same wire bytes over loopback, one batch in flight.
    auto socket_layer = [&](LayerStream& ls, int fd, const char* name) {
      const auto wires = to_wire(ls.NextChunk(chunk));
      double timed = 0.0;
      for (const auto& w : wires) {
        if (reload_due(ls) && RoundTrip(fd, "RELOAD\n", 1, &scratch) != 0) {
          ++failures;
        }
        const auto t0 = Clock::now();
        const long bad = RoundTrip(fd, w, opt.batch, &scratch);
        timed += NanosSince(t0);
        ls.done += opt.batch;
        failures += bad < 0 ? opt.batch : static_cast<uint64_t>(bad);
      }
      rounds[name].push_back(timed / static_cast<double>(chunk));
    };
    socket_layer(net_s, net_client.fd(), "net.req_ns");
    net_requests += chunk;
    socket_layer(e2e_s, e2e_client.fd(), "e2e.req_ns");
    if (num_rounds == 1 && layer_cache != nullptr) {
      // The first round fills the caches; count hits from round two on.
      const auto st = layer_cache->Stats();
      cache_hits0 = st.hits;
      cache_misses0 = st.misses;
    }
  }
  const double bytes_out_per_req =
      static_cast<double>(server.Stats().bytes_out - net_bytes0) /
      static_cast<double>(net_requests);

  // Reload cost, measured the same way on every workload: ModelManager::Load
  // in process, and a RELOAD answered by the rne_server process.
  std::vector<double> reload_ms, stall_ms;
  for (int i = 0; i < 7; ++i) {
    auto t0 = Clock::now();
    if (!manager.Load(opt.model).ok()) ++failures;
    reload_ms.push_back(NanosSince(t0) / 1e6);
    t0 = Clock::now();
    if (RoundTrip(e2e_client.fd(), "RELOAD\n", 1, &scratch) != 0) ++failures;
    stall_ms.push_back(NanosSince(t0) / 1e6);
  }

  std::map<std::string, double> m;
  for (const auto& [name, values] : rounds) m[name] = Median(values);
  const auto snap = manager.Current();
  const double dim = static_cast<double>(snap->model->dim());
  const double bytes_per_float =
      static_cast<double>(snap->model->IndexBytes()) /
      (static_cast<double>(snap->model->NumVertices()) * dim);
  m["core.build_s"] = snap->model->build_seconds();
  m["core.bytes_per_query"] = 2.0 * dim * bytes_per_float;

  const auto engine_metrics = engine.Metrics();
  m["engine.rejected"] = static_cast<double>(engine_metrics.rejected);
  m["engine.fell_back"] = static_cast<double>(
      engine_metrics.fell_back_load + engine_metrics.fell_back_deadline +
      engine_metrics.fell_back_breaker);
  double miss_share = 1.0;
  if (layer_cache != nullptr) {
    const auto st = layer_cache->Stats();
    const double hits = static_cast<double>(st.hits - cache_hits0);
    const double misses = static_cast<double>(st.misses - cache_misses0);
    m["cache.hit_rate"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    m["cache.evictions"] = static_cast<double>(st.evictions);
    m["cache.invalidations"] = static_cast<double>(st.invalidations);
    miss_share = 1.0 - m["cache.hit_rate"];
  } else {
    m["cache.hit_rate"] = 0.0;
    m["cache.evictions"] = 0.0;
    m["cache.invalidations"] = 0.0;
  }
  m["model_manager.reload_ms"] = Median(reload_ms);
  m["model_manager.reload_stall_ms"] = Median(stall_ms);
  m["net.bytes_out_per_req"] = bytes_out_per_req;

  // Self times per end-to-end request. Layers under the cache only see its
  // misses, so their self times are scaled by the miss share. The engine
  // fans a batch out over its workers in batch_chunk-sized tasks, so the
  // backend calls (and the kernel inside them) cover 1/parallelism of the
  // engine span.
  const size_t tasks =
      (opt.batch + engine_options.batch_chunk - 1) / engine_options.batch_chunk;
  const double parallelism =
      static_cast<double>(std::max<size_t>(1, std::min(tasks, opt.threads)));
  const double core_ns = knn ? m["core.knn_ns"] : m["core.query_ns"];
  const double backend_ns =
      knn ? m["backend.knn_ns"] : m["backend.distance_ns"];
  m["core.self_ns"] = core_ns / parallelism * miss_share;
  m["backend.self_ns"] = (backend_ns - core_ns) / parallelism * miss_share;
  m["engine.self_ns"] =
      (m["engine.req_ns"] - backend_ns / parallelism) * miss_share;
  m["cache.self_ns"] = m["cache.req_ns"] - m["cache.child_ns"];
  m["protocol.self_ns"] = m["protocol.req_ns"] - m["cache.req_ns"];
  m["net.self_ns"] = m["net.req_ns"] - m["protocol.req_ns"];
  m["unattributed_ns"] = m["e2e.req_ns"] - m["core.self_ns"] -
                         m["backend.self_ns"] - m["engine.self_ns"] -
                         m["cache.self_ns"] - m["protocol.self_ns"] -
                         m["net.self_ns"];
  m.erase("cache.child_ns");

  std::string json = "{\"metrics\": {";
  bool first = true;
  char buf[160];
  for (const auto& [name, value] : m) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6f", first ? "" : ", ",
                  name.c_str(), value);
    json.append(buf);
    first = false;
  }
  std::snprintf(buf, sizeof(buf),
                "}, \"rounds\": %zu, \"chunk\": %zu, \"failures\": %llu, "
                "\"parallelism\": %.0f, ",
                num_rounds, chunk, static_cast<unsigned long long>(failures),
                parallelism);
  json.append(buf);
  std::snprintf(buf, sizeof(buf),
                "\"kernel_backend\": \"%s\", \"dim\": %zu, "
                "\"index_bytes\": %zu, \"vertices\": %zu, \"sink\": %.1f}",
                rne::KernelBackendName(), snap->model->dim(),
                snap->model->IndexBytes(), snap->model->NumVertices(), sink);
  json.append(buf);
  std::printf("%s\n", json.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  auto parsed = rne::ArgParser::Parse(argc, argv, 1, {});
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const rne::ArgParser& args = parsed.value();
  rne::FlagReader flags(args);
  Options opt;
  opt.seed = static_cast<uint64_t>(flags.Int("seed", 1));
  opt.seconds = flags.Real("seconds", 10.0);
  opt.cache = static_cast<size_t>(flags.Int("cache", 65536));
  opt.batch = static_cast<size_t>(flags.Int("batch", 64));
  opt.threads = static_cast<size_t>(flags.Int("threads", 2));
  opt.reload_every = static_cast<uint64_t>(flags.Int("reload-every", 0));
  opt.port = static_cast<uint16_t>(flags.Int("port", 0));
  if (!flags.status().ok()) return Fail(flags.status().ToString());
  opt.gr = args.Get("gr", "");
  opt.co = args.Get("co", "");
  opt.model = args.Get("model", "");
  if (!ParseSpec(args.Get("kind", "query"), args.Get("dist", "uniform"),
                 &opt.spec) ||
      opt.batch == 0 || opt.threads == 0 || opt.port == 0) {
    return Fail("bad flags (need --kind, --dist, --port, --model, --gr)");
  }
  return Run(opt);
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
