// TCP front-end tests: a real TcpServer on an ephemeral loopback port with
// Serve() on its own thread, driven by BlockingClient. Covers pipelined
// request/answer ordering, malformed and oversized frames, slow-client and
// idle-client eviction, the connection cap, STATS over the socket and
// METRICS reading the same counters, cache hits across connections,
// graceful drain with answers still buffered, and the multi-reactor
// contracts: placement on the least-loaded reactor, concurrent pipelined
// connections, drain with a batch in flight on every reactor, the global
// connection cap, and RELOAD racing cached KNNs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rne.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "serve/model_manager.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "util/rng.h"

namespace rne::net {
namespace {

using namespace std::chrono_literals;

constexpr auto kRecvTimeout = 5000ms;

/// Polls `pred` until true or the deadline passes; TCP tests must never
/// sleep a fixed amount and hope.
template <typename Pred>
bool WaitFor(Pred pred, std::chrono::milliseconds deadline = 3000ms) {
  const auto stop = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < stop) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

/// The number after `"key":` (optionally space-padded) in the JSON text
/// `json`; the first occurrence wins. STATS pads with a space, METRICS
/// does not.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string quoted = "\"" + key + "\":";
  const size_t at = json.find(quoted);
  EXPECT_NE(at, std::string::npos) << key << " missing from " << json;
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + quoted.size(), nullptr);
}

class NetTest : public ::testing::Test {
 protected:
  NetTest() : graph_(MakeGraph()), engine_(MakeEngineOptions()) {
    serve::BackendContext ctx;
    ctx.graph = &graph_;
    engine_.AddBackend("dijkstra", ctx);
    EXPECT_TRUE(engine_.WaitUntilLoaded().ok());
  }

  ~NetTest() override { StopServer(); }

  static Graph MakeGraph() {
    RoadNetworkConfig cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    cfg.seed = 7;
    return MakeRoadNetwork(cfg);
  }

  static serve::EngineOptions MakeEngineOptions() {
    serve::EngineOptions options;
    options.num_threads = 2;
    return options;
  }

  /// Starts the server on `engine` (default: the fixture's dijkstra
  /// engine) with `options` (port forced ephemeral), Serve() on a
  /// background thread.
  void StartServer(TcpServerOptions options = {},
                   serve::QueryEngine* engine = nullptr) {
    options.port = 0;
    server_ = std::make_unique<TcpServer>(
        engine == nullptr ? engine_ : *engine, options);
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
  }

  void StopServer() {
    if (server_ != nullptr && serve_thread_.joinable()) {
      server_->Shutdown();
      serve_thread_.join();
    }
    server_.reset();
  }

  BlockingClient Connect() {
    BlockingClient client;
    EXPECT_TRUE(
        client.Connect("127.0.0.1", server_->port(), kRecvTimeout).ok());
    return client;
  }

  Graph graph_;
  serve::QueryEngine engine_;
  /// Per-test serving objects; declared before server_ so they outlive it.
  std::unique_ptr<serve::QueryEngine> other_engine_;
  std::unique_ptr<serve::ResultCache> cache_;
  std::unique_ptr<serve::ModelManager> manager_;
  std::unique_ptr<TcpServer> server_;
  std::thread serve_thread_;
  Status serve_status_;
};

TEST_F(NetTest, PipelinedRequestsAnswerInOrder) {
  StartServer();
  BlockingClient client = Connect();
  // One write carrying many requests; answers must come back 1:1, in
  // order. Repeated queries pin the ordering: equal inputs, equal lines.
  std::string burst;
  for (int i = 0; i < 32; ++i) {
    burst += "QUERY 0 " + std::to_string(1 + i % 4) + "\n";
  }
  ASSERT_TRUE(client.Send(burst).ok());
  std::vector<std::string> lines;
  for (int i = 0; i < 32; ++i) {
    auto line = client.ReadLine();
    ASSERT_TRUE(line.ok()) << i << ": " << line.status().ToString();
    lines.push_back(std::move(line).value());
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(lines[i].rfind("DIST ", 0), 0u) << lines[i];
    // Same request as 4 positions earlier => byte-identical answer line.
    if (i >= 4) {
      EXPECT_EQ(lines[i], lines[i - 4]) << i;
    }
  }
}

TEST_F(NetTest, MalformedFramesGetErrorsAndTheConnectionSurvives) {
  StartServer();
  BlockingClient client = Connect();
  ASSERT_TRUE(client.Send("FROBNICATE 1 2\nQUERY nope\nQUERY 0 5\n").ok());
  auto l1 = client.ReadLine();
  ASSERT_TRUE(l1.ok());
  EXPECT_EQ(l1.value(), "ERR INVALID_ARGUMENT: unknown verb 'FROBNICATE'");
  auto l2 = client.ReadLine();
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(l2.value(), "ERR INVALID_ARGUMENT: usage: QUERY <s> <t>");
  auto l3 = client.ReadLine();
  ASSERT_TRUE(l3.ok());
  EXPECT_EQ(l3.value().rfind("DIST ", 0), 0u) << l3.value();
}

TEST_F(NetTest, OversizedLineIsRejectedAndTheConnectionClosed) {
  TcpServerOptions options;
  options.max_line_bytes = 128;
  StartServer(options);
  BlockingClient client = Connect();
  ASSERT_TRUE(client.Send(std::string(4096, 'x')).ok());  // no newline
  auto err = client.ReadLine();
  ASSERT_TRUE(err.ok()) << err.status().ToString();
  EXPECT_EQ(err.value().rfind("ERR ", 0), 0u) << err.value();
  EXPECT_NE(err.value().find("line exceeds"), std::string::npos)
      << err.value();
  // Server closes after the error line.
  auto eof = client.ReadLine();
  EXPECT_FALSE(eof.ok());
  EXPECT_TRUE(
      WaitFor([this] { return server_->Stats().evicted_oversize > 0; }));
}

TEST_F(NetTest, SlowClientIsEvictedWhenItsBacklogPassesTheCap) {
  TcpServerOptions options;
  options.write_buffer_cap = 64 * 1024;
  options.send_buffer_bytes = 4096;
  StartServer(options);
  BlockingClient client = Connect();
  // ~4k pipelined full-graph kNN answers (~64 entries each) make megabytes
  // of output; this client never reads, so the server-side backlog blows
  // through the 64 KiB cap and the connection is closed as slow.
  std::string burst;
  for (int i = 0; i < 4000; ++i) burst += "KNN 0 64\n";
  ASSERT_TRUE(client.Send(burst).ok());
  EXPECT_TRUE(WaitFor([this] { return server_->Stats().evicted_slow > 0; }))
      << "slow client was never evicted";
}

TEST_F(NetTest, IdleClientIsEvictedAfterTheTimeout) {
  TcpServerOptions options;
  options.idle_timeout = 50ms;
  options.poll_interval = 10ms;
  StartServer(options);
  BlockingClient client = Connect();
  // Send nothing: the sweep must close us. ReadLine surfaces the EOF.
  auto eof = client.ReadLine();
  EXPECT_FALSE(eof.ok());
  EXPECT_TRUE(WaitFor([this] { return server_->Stats().evicted_idle > 0; }));
  EXPECT_EQ(server_->active_connections().load(), 0u);
}

TEST_F(NetTest, ConnectionCapRefusesTheOverflowClient) {
  TcpServerOptions options;
  options.max_connections = 1;
  StartServer(options);
  BlockingClient first = Connect();
  ASSERT_TRUE(first.Send("QUERY 0 1\n").ok());
  ASSERT_TRUE(first.ReadLine().ok());  // the slot is definitely taken

  BlockingClient second = Connect();  // backlog accepts, server refuses
  auto eof = second.ReadLine();
  EXPECT_FALSE(eof.ok()) << "overflow connection must be closed unserved";
  EXPECT_TRUE(WaitFor([this] { return server_->Stats().refused > 0; }));

  // The admitted client keeps working.
  ASSERT_TRUE(first.Send("QUERY 0 2\n").ok());
  EXPECT_TRUE(first.ReadLine().ok());
}

TEST_F(NetTest, StatsOverTheSocketReportsCacheAndConnections) {
  serve::ResultCache cache;
  TcpServerOptions options;
  options.loop.cache = &cache;
  StartServer(options);
  BlockingClient client = Connect();
  ASSERT_TRUE(client.Send("QUERY 0 5\nSTATS\n").ok());
  ASSERT_TRUE(client.ReadLine().ok());
  auto stats = client.ReadLine();
  ASSERT_TRUE(stats.ok());
  const std::string& line = stats.value();
  EXPECT_EQ(line.rfind("STATS {", 0), 0u) << line;
  EXPECT_NE(line.find("\"cache\": {"), std::string::npos) << line;
  EXPECT_NE(line.find("\"active_connections\": 1"), std::string::npos)
      << line;
}

TEST_F(NetTest, CacheHitsServeAcrossConnections) {
  serve::ResultCache cache;
  TcpServerOptions options;
  options.loop.cache = &cache;
  StartServer(options);
  {
    BlockingClient warm = Connect();
    ASSERT_TRUE(warm.Send("QUERY 0 5\n").ok());
    auto miss = warm.ReadLine();
    ASSERT_TRUE(miss.ok());
    EXPECT_NE(miss.value().find("cached=0"), std::string::npos)
        << miss.value();
  }
  BlockingClient hot = Connect();
  ASSERT_TRUE(hot.Send("QUERY 0 5\n").ok());
  auto hit = hot.ReadLine();
  ASSERT_TRUE(hit.ok());
  EXPECT_NE(hit.value().find("cached=1"), std::string::npos) << hit.value();
  EXPECT_GE(cache.Stats().hits, 1u);
}

TEST_F(NetTest, GracefulDrainFlushesBufferedAnswers) {
  StartServer();
  BlockingClient client = Connect();
  std::string burst;
  for (int i = 0; i < 16; ++i) burst += "QUERY 0 " + std::to_string(i) + "\n";
  ASSERT_TRUE(client.Send(burst).ok());
  // Make sure the reactor has taken the requests before the drain starts.
  ASSERT_TRUE(WaitFor([this] { return server_->Stats().lines >= 16; }));
  server_->Shutdown();

  size_t answered = 0;
  for (;;) {
    auto line = client.ReadLine();
    if (!line.ok()) break;  // EOF once the drain finished
    EXPECT_EQ(line.value().rfind("DIST ", 0), 0u) << line.value();
    ++answered;
  }
  EXPECT_EQ(answered, 16u) << "drain must flush every buffered answer";
  serve_thread_.join();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  EXPECT_EQ(server_->active_connections().load(), 0u);
}

TEST_F(NetTest, ExternalStopFlagDrainsTheReactorToo) {
  // rne_server wires its signal flag through ServerLoopOptions::stop; the
  // reactor must honor it exactly like Shutdown().
  std::atomic<bool> stop{false};
  TcpServerOptions options;
  options.loop.stop = &stop;
  options.poll_interval = 10ms;
  StartServer(options);
  BlockingClient client = Connect();
  ASSERT_TRUE(client.Send("QUERY 0 3\n").ok());
  ASSERT_TRUE(client.ReadLine().ok());
  stop.store(true);
  serve_thread_.join();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
}


/// "%.2f" of a distance, the way DIST and KNN answers print it.
std::string Fixed2(double value) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

/// Reads `n` lines, failing the test on a short read.
std::vector<std::string> ReadLines(BlockingClient& client, size_t n) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < n; ++i) {
    auto line = client.ReadLine();
    if (!line.ok()) {
      ADD_FAILURE() << "line " << i << ": " << line.status().ToString();
      break;
    }
    lines.push_back(std::move(line).value());
  }
  return lines;
}

TEST_F(NetTest, ConnectionsLandOnTheLeastLoadedReactor) {
  StartServer();  // 2-worker engine => 2 reactors
  EXPECT_EQ(server_->Stats().reactor_connections.size(), 2u);
  auto a = std::make_unique<BlockingClient>(Connect());
  ASSERT_TRUE(a->Send("QUERY 0 1\n").ok());
  ASSERT_TRUE(a->ReadLine().ok());
  BlockingClient b = Connect();
  ASSERT_TRUE(b.Send("QUERY 0 2\n").ok());
  ASSERT_TRUE(b.ReadLine().ok());
  EXPECT_EQ(server_->Stats().reactor_connections,
            (std::vector<size_t>{1, 1}));

  // A tie goes to the lowest index.
  BlockingClient c = Connect();
  ASSERT_TRUE(c.Send("QUERY 0 3\n").ok());
  ASSERT_TRUE(c.ReadLine().ok());
  EXPECT_EQ(server_->Stats().reactor_connections,
            (std::vector<size_t>{2, 1}));

  // Closing `a` (reactor 0) frees its slot there.
  a.reset();
  ASSERT_TRUE(
      WaitFor([this] { return server_->active_connections().load() == 2; }));
  EXPECT_EQ(server_->Stats().reactor_connections,
            (std::vector<size_t>{1, 1}));
  EXPECT_EQ(server_->Stats().active_connections, 2u);
}

TEST_F(NetTest, ConcurrentPipelinedConnectionsMatchDirectEngineAnswers) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kLines = 150;
  const size_t n = graph_.NumVertices();
  // Per client: the wire script and the exact expected transcript, from
  // direct engine calls (STATS lines are checked by prefix).
  std::vector<std::string> scripts(kClients);
  std::vector<std::vector<std::string>> expected(kClients);
  Rng rng(99);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kLines; ++i) {
      const double pick = rng.UniformReal(0.0, 1.0);
      serve::Request request;
      request.s = static_cast<VertexId>(rng.UniformIndex(n));
      if (pick < 0.05) {
        scripts[c] += "STATS\n";
        expected[c].push_back("STATS {");
        continue;
      }
      std::string want;
      if (pick < 0.75) {
        request.kind = serve::RequestKind::kDistance;
        request.t = static_cast<VertexId>(rng.UniformIndex(n));
        scripts[c] += "QUERY " + std::to_string(request.s) + " " +
                      std::to_string(request.t) + "\n";
        const serve::Response r = engine_.Query(request);
        want = "DIST " + Fixed2(r.distance) +
               " backend=dijkstra exact=1 fallback=0 cached=0";
      } else {
        request.kind = serve::RequestKind::kKnn;
        request.k = 1 + rng.UniformIndex(8);
        scripts[c] += "KNN " + std::to_string(request.s) + " " +
                      std::to_string(request.k) + "\n";
        const serve::Response r = engine_.Query(request);
        want = "KNN";
        for (const auto& [v, d] : r.knn) {
          want += " " + std::to_string(v) + ":" + Fixed2(d);
        }
      }
      expected[c].push_back(std::move(want));
    }
  }
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &scripts, &got] {
      BlockingClient client = Connect();
      // Two writes so a burst straddles a read boundary mid-script.
      const size_t half = scripts[c].find('\n', scripts[c].size() / 2) + 1;
      EXPECT_TRUE(client.Send(scripts[c].substr(0, half)).ok());
      EXPECT_TRUE(client.Send(scripts[c].substr(half)).ok());
      got[c] = ReadLines(client, kLines);
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), expected[c].size()) << "client " << c;
    for (size_t i = 0; i < got[c].size(); ++i) {
      if (expected[c][i] == "STATS {") {
        EXPECT_EQ(got[c][i].rfind("STATS {", 0), 0u) << c << ":" << i;
      } else {
        EXPECT_EQ(got[c][i], expected[c][i]) << c << ":" << i;
      }
    }
  }
  const NetStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.lines, static_cast<uint64_t>(kClients) * kLines);
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kClients));
}

TEST_F(NetTest, DrainAnswersTheBatchInFlightOnEveryReactor) {
  // Each reactor is blocked inside its own batch (the gate holds the
  // backend) when the drain starts; both batches must still be answered.
  class GatedBackend : public serve::QueryBackend {
   public:
    std::string Name() const override { return "gated"; }
    bool IsExact() const override { return false; }
    size_t NumVertices() const override { return 64; }
    size_t IndexBytes() const override { return 0; }
    double Distance(VertexId s, VertexId t) override {
      entered.fetch_add(1);
      gate.wait();
      return static_cast<double>(s + t);
    }
    std::atomic<size_t> entered{0};
    std::shared_future<void> gate;
  };
  serve::EngineOptions engine_options;
  engine_options.num_threads = 2;
  other_engine_ = std::make_unique<serve::QueryEngine>(engine_options);
  auto backend = std::make_unique<GatedBackend>();
  GatedBackend* gated = backend.get();
  std::promise<void> release;
  gated->gate = release.get_future().share();
  other_engine_->AddReadyBackend(std::move(backend));
  TcpServerOptions options;
  options.poll_interval = 10ms;
  StartServer(options, other_engine_.get());

  constexpr int kPerClient = 16;
  std::vector<BlockingClient> clients;
  for (int c = 0; c < 2; ++c) {
    clients.push_back(Connect());
    std::string burst;
    for (int i = 0; i < kPerClient; ++i) {
      burst += "QUERY " + std::to_string(c) + " " + std::to_string(i) + "\n";
    }
    ASSERT_TRUE(clients.back().Send(burst).ok());
  }
  const bool both_blocked = WaitFor([gated] { return gated->entered >= 2; });
  EXPECT_EQ(server_->Stats().reactor_connections,
            (std::vector<size_t>{1, 1}));
  server_->Shutdown();
  std::this_thread::sleep_for(30ms);  // let the acceptor start the drain
  release.set_value();
  ASSERT_TRUE(both_blocked) << "each reactor should be inside its batch";

  for (int c = 0; c < 2; ++c) {
    size_t answered = 0;
    for (;;) {
      auto line = clients[c].ReadLine();
      if (!line.ok()) break;  // EOF once the drain finished
      const std::string want = "DIST " + Fixed2(c + answered) +
                               " backend=gated exact=0 fallback=0 cached=0";
      EXPECT_EQ(line.value(), want);
      ++answered;
    }
    EXPECT_EQ(answered, static_cast<size_t>(kPerClient)) << "client " << c;
  }
  serve_thread_.join();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  EXPECT_EQ(server_->active_connections().load(), 0u);
  EXPECT_EQ(server_->Stats().reactor_connections,
            (std::vector<size_t>{0, 0}));
}

TEST_F(NetTest, ConnectionCapHoldsAcrossReactors) {
  TcpServerOptions options;
  options.max_connections = 3;
  StartServer(options);
  std::vector<std::unique_ptr<BlockingClient>> admitted;
  for (int i = 0; i < 3; ++i) {
    admitted.push_back(std::make_unique<BlockingClient>(Connect()));
    ASSERT_TRUE(admitted.back()->Send("QUERY 0 1\n").ok());
    ASSERT_TRUE(admitted.back()->ReadLine().ok());
  }
  EXPECT_EQ(server_->Stats().reactor_connections,
            (std::vector<size_t>{2, 1}));

  BlockingClient overflow = Connect();
  EXPECT_FALSE(overflow.ReadLine().ok()) << "fourth connection is over cap";
  EXPECT_TRUE(WaitFor([this] { return server_->Stats().refused == 1; }));

  // A freed slot on either reactor admits the next client.
  admitted[1].reset();
  ASSERT_TRUE(
      WaitFor([this] { return server_->active_connections().load() == 2; }));
  BlockingClient next = Connect();
  ASSERT_TRUE(next.Send("QUERY 0 2\n").ok());
  EXPECT_TRUE(next.ReadLine().ok());
  EXPECT_EQ(server_->Stats().refused, 1u);
}

TEST_F(NetTest, ActiveGaugeReachesZeroAfterClosesOnBothReactors) {
  // The acceptor and both reactors move the live count that METRICS
  // reports as net.active_connections. Read it from the registry rather
  // than over METRICS: a probe connection would itself be live.
  StartServer();
  const auto active = [] {
    return JsonNumber(obs::MetricsRegistry::Global().ToJson(),
                      "net.active_connections");
  };
  for (int round = 0; round < 20; ++round) {
    std::vector<std::unique_ptr<BlockingClient>> clients;
    for (int i = 0; i < 4; ++i) {
      clients.push_back(std::make_unique<BlockingClient>(Connect()));
      ASSERT_TRUE(clients.back()->Send("QUERY 0 1\n").ok());
      ASSERT_TRUE(clients.back()->ReadLine().ok());
    }
    EXPECT_EQ(server_->Stats().reactor_connections,
              (std::vector<size_t>{2, 2}));
    EXPECT_EQ(active(), 4.0) << "round " << round;
    clients.clear();  // both reactors see their closes at once
    ASSERT_TRUE(
        WaitFor([this] { return server_->active_connections().load() == 0; }));
    EXPECT_EQ(active(), 0.0) << "round " << round;
  }
}

TEST_F(NetTest, MetricsReadsTheCountersStatsReports) {
  // METRICS renders the engine's, the server's and the cache's own
  // counters, so after a pipelined run each equals what STATS and Stats()
  // report. Totals folded in by earlier tests' engines are cleared first.
  obs::MetricsRegistry::Global().ResetForTest();
  serve::ResultCache cache;
  TcpServerOptions options;
  options.loop.cache = &cache;
  options.loop.batch = 1;  // repeats within the burst can hit the cache
  StartServer(options);
  BlockingClient client = Connect();
  std::string burst;
  for (int i = 0; i < 48; ++i) {
    burst += i % 3 == 0 ? std::string("KNN 0 3\n")
                        : "QUERY 0 " + std::to_string(i % 4) + "\n";
  }
  burst += "STATS\n";
  ASSERT_TRUE(client.Send(burst).ok());
  uint64_t received = 0;
  std::string stats;
  for (int i = 0; i <= 48; ++i) {
    auto line = client.ReadLine();
    ASSERT_TRUE(line.ok()) << i << ": " << line.status().ToString();
    received += line.value().size() + 1;
    stats = std::move(line).value();
  }
  ASSERT_EQ(stats.rfind("STATS {", 0), 0u) << stats;
  // The server counts written bytes just after the write the client saw.
  ASSERT_TRUE(
      WaitFor([&] { return server_->Stats().bytes_out == received; }));
  const NetStatsSnapshot net = server_->Stats();
  ASSERT_TRUE(client.Send("METRICS\n").ok());
  auto metrics = client.ReadLine();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& json = metrics.value();
  ASSERT_EQ(json.rfind("METRICS {", 0), 0u) << json;

  EXPECT_EQ(JsonNumber(stats, "served"), 48.0 - JsonNumber(stats, "hits"));
  EXPECT_GT(JsonNumber(stats, "hits"), 0.0);
  EXPECT_EQ(JsonNumber(json, "serve.served"), JsonNumber(stats, "served"));
  EXPECT_EQ(JsonNumber(json, "serve.served"),
            static_cast<double>(engine_.Metrics().served));
  EXPECT_EQ(JsonNumber(json, "serve.cache.hits"), JsonNumber(stats, "hits"));
  EXPECT_EQ(JsonNumber(json, "serve.cache.hits"),
            static_cast<double>(cache.Stats().hits));
  // The METRICS line is counted after its read burst is handled.
  EXPECT_EQ(JsonNumber(json, "net.lines"), static_cast<double>(net.lines));
  EXPECT_EQ(net.lines, 49u);
  EXPECT_EQ(JsonNumber(json, "net.bytes_out"),
            static_cast<double>(net.bytes_out));
}

TEST_F(NetTest, ReloadOnOneConnectionNeverLeavesAPreSwapCachedAnswer) {
  // Connection 1 pipelines KNNs (the learned answers the cache keeps) while
  // connection 2 flips the model between two builds with different answers.
  // Any round of KNNs sent and answered entirely between two RELOADs must
  // carry the answers of the model the last RELOAD OK published, never a
  // pre-swap cache entry.
  const auto build = [this](uint64_t seed, const std::string& name) {
    RneConfig config;
    config.dim = 8;
    config.hierarchical = false;
    config.fine_tune = false;
    config.train.vertex_samples = 2000;
    config.train.vertex_epochs = 1;
    config.train.seed = seed;
    const Rne model = Rne::Build(graph_, config);
    const std::string path =
        (std::filesystem::temp_directory_path() / name).string();
    EXPECT_TRUE(model.Save(path).ok());
    return path;
  };
  const std::string path_a = build(1, "net_test_reload_a.rne");
  const std::string path_b = build(2, "net_test_reload_b.rne");
  const std::string paths[2] = {path_a, path_b};

  // Sources whose printed KNN line differs between the two models, each
  // model's line read from a managed backend of its own.
  constexpr size_t kK = 4;
  serve::ModelManager reference_managers[2];
  std::unique_ptr<serve::QueryBackend> reference[2];
  for (int m = 0; m < 2; ++m) {
    ASSERT_TRUE(reference_managers[m].Load(paths[m]).ok());
    reference[m] = reference_managers[m].MakeManagedBackend();
  }
  const auto knn_line = [&](int m, VertexId s) {
    std::string line = "KNN";
    for (const auto& [v, d] : reference[m]->Knn(s, kK)) {
      line.append(" ").append(std::to_string(v));
      line.append(":").append(Fixed2(d));
    }
    return line;
  };
  std::vector<VertexId> sources;
  std::vector<std::string> want[2];
  const auto n = static_cast<VertexId>(graph_.NumVertices());
  for (VertexId s = 0; s < n && sources.size() < 16; ++s) {
    const std::string a = knn_line(0, s);
    const std::string b = knn_line(1, s);
    if (a == b) continue;
    sources.push_back(s);
    want[0].push_back(a);
    want[1].push_back(b);
  }
  ASSERT_GE(sources.size(), 8u);
  std::string round;
  for (const VertexId s : sources) {
    round += "KNN " + std::to_string(s) + " " + std::to_string(kK) + "\n";
  }

  manager_ = std::make_unique<serve::ModelManager>();
  ASSERT_TRUE(manager_->Load(path_a).ok());
  cache_ = std::make_unique<serve::ResultCache>();
  serve::EngineOptions engine_options;
  engine_options.num_threads = 2;
  other_engine_ = std::make_unique<serve::QueryEngine>(engine_options);
  // Each answer is computed on the snapshot current at the call and handed
  // back a little later, so batches regularly straddle a swap.
  class LateBackend : public serve::QueryBackend {
   public:
    explicit LateBackend(std::unique_ptr<serve::QueryBackend> inner)
        : inner_(std::move(inner)) {}
    std::string Name() const override { return inner_->Name(); }
    bool IsExact() const override { return inner_->IsExact(); }
    size_t NumVertices() const override { return inner_->NumVertices(); }
    size_t IndexBytes() const override { return inner_->IndexBytes(); }
    double Distance(VertexId s, VertexId t) override {
      return inner_->Distance(s, t);
    }
    bool SupportsKnn() const override { return true; }
    std::vector<std::pair<VertexId, double>> Knn(VertexId s,
                                                 size_t k) override {
      auto list = inner_->Knn(s, k);
      std::this_thread::sleep_for(200us);
      return list;
    }

   private:
    std::unique_ptr<serve::QueryBackend> inner_;
  };
  other_engine_->AddReadyBackend(
      std::make_unique<LateBackend>(manager_->MakeManagedBackend()));
  TcpServerOptions options;
  options.loop.model_manager = manager_.get();
  options.loop.cache = cache_.get();
  options.loop.batch = 4;  // several engine batches per round
  StartServer(options, other_engine_.get());

  // Even = stable with model (seq / 2) % 2 published; odd = RELOAD pending.
  std::atomic<int> seq{0};
  std::atomic<bool> done{false};
  std::atomic<int> checked_rounds{0};
  std::thread pipeliner([&] {
    BlockingClient client = Connect();
    while (!done.load()) {
      const int before = seq.load();
      if (!client.Send(round).ok()) break;
      const auto lines = ReadLines(client, sources.size());
      if (lines.size() != sources.size()) break;
      if (before % 2 != 0 || seq.load() != before) continue;
      const int model = (before / 2) % 2;
      for (size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i], want[model][i])
            << "source " << i << " after " << before / 2 << " reloads";
      }
      checked_rounds.fetch_add(1);
    }
  });
  BlockingClient control = Connect();
  for (int reload = 1; reload <= 24; ++reload) {
    // Sometimes back to back, so a RELOAD lands while the previous one's
    // miss round is still computing; sometimes after checked rounds.
    const int stable = checked_rounds.load();
    WaitFor([&] { return checked_rounds.load() >= stable + reload % 3; });
    seq.fetch_add(1);  // odd: answers may come from either model
    EXPECT_TRUE(control.Send("RELOAD " + paths[reload % 2] + "\n").ok());
    auto ok = control.ReadLine();
    if (!ok.ok() || ok.value().rfind("RELOAD OK", 0) != 0) {
      ADD_FAILURE() << (ok.ok() ? ok.value() : ok.status().ToString());
      break;
    }
    seq.fetch_add(1);
  }
  const int stable = checked_rounds.load();
  WaitFor([&] { return checked_rounds.load() >= stable + 3; });
  done.store(true);
  pipeliner.join();
  EXPECT_GT(cache_->Stats().hits, 0u) << "rounds must exercise cache hits";
  StopServer();
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

}  // namespace
}  // namespace rne::net
