// rne_server line-protocol tests: RunServerLoop driven in-process through
// stringstreams against a real engine (exact Dijkstra backend on a small
// generator graph). Covers malformed lines, boundary kNN parameters (k=0,
// k > |V|), out-of-range vertex ids, answer ordering around parse errors,
// and the STATS / METRICS response shapes. A parser differential holds
// ParseRequestLine to the istringstream parsing it replaced, over seeded
// edge-token lines and every protocol fuzz input.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/rne.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "serve/model_manager.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/server_loop.h"
#include "util/rng.h"

namespace rne::serve {
namespace {

Graph SmallNetwork() {
  RoadNetworkConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.seed = 7;
  return MakeRoadNetwork(cfg);
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

class ServerProtocolTest : public ::testing::Test {
 protected:
  ServerProtocolTest() : graph_(SmallNetwork()), engine_(MakeOptions()) {
    BackendContext ctx;
    ctx.graph = &graph_;
    engine_.AddBackend("dijkstra", ctx);
    EXPECT_TRUE(engine_.WaitUntilLoaded().ok());
  }

  static EngineOptions MakeOptions() {
    EngineOptions options;
    options.num_threads = 2;
    return options;
  }

  std::vector<std::string> Run(const std::string& input, size_t batch = 4) {
    std::istringstream in(input);
    std::ostringstream out;
    ServerLoopOptions options;
    options.batch = batch;
    RunServerLoop(in, out, engine_, options);
    return Lines(out.str());
  }

  Graph graph_;
  QueryEngine engine_;
};

TEST_F(ServerProtocolTest, AnswersDistanceAndKnn) {
  const auto lines = Run("QUERY 0 5\nKNN 0 3\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("DIST ", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("backend=dijkstra"), std::string::npos);
  EXPECT_NE(lines[0].find("exact=1"), std::string::npos);
  // k=3 from vertex 0 always includes 0 itself at distance 0.
  EXPECT_EQ(lines[1].rfind("KNN 0:0.00", 0), 0u) << lines[1];
  EXPECT_EQ(Lines(lines[1]).size(), 1u);
}

TEST_F(ServerProtocolTest, MalformedLinesGetUsageErrors) {
  const auto lines = Run(
      "QUERY 1\n"          // missing target
      "QUERY a b\n"        // non-numeric
      "QUERY -1 5\n"       // negative id
      "KNN\n"              // missing everything
      "KNN 3 -2\n"         // negative k
      "FROBNICATE 1 2\n"   // unknown verb
      "\n"                 // blank: ignored entirely
      "QUERY 2 3\n");
  ASSERT_EQ(lines.size(), 7u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(lines[i], "ERR INVALID_ARGUMENT: usage: QUERY <s> <t>") << i;
  }
  EXPECT_EQ(lines[3], "ERR INVALID_ARGUMENT: usage: KNN <s> <k>");
  EXPECT_EQ(lines[4], "ERR INVALID_ARGUMENT: usage: KNN <s> <k>");
  EXPECT_EQ(lines[5], "ERR INVALID_ARGUMENT: unknown verb 'FROBNICATE'");
  EXPECT_EQ(lines[6].rfind("DIST ", 0), 0u) << lines[6];
}

TEST_F(ServerProtocolTest, AnswersStayInRequestOrderAroundParseErrors) {
  // The bad line arrives while two queries are still buffered (batch=8
  // would otherwise hold them); its error must not overtake their answers.
  const auto lines = Run("QUERY 0 1\nQUERY 0 2\nQUERY oops\nQUERY 0 3\n",
                         /*batch=*/8);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("DIST ", 0), 0u);
  EXPECT_EQ(lines[1].rfind("DIST ", 0), 0u);
  EXPECT_EQ(lines[2], "ERR INVALID_ARGUMENT: usage: QUERY <s> <t>");
  EXPECT_EQ(lines[3].rfind("DIST ", 0), 0u);
}

TEST_F(ServerProtocolTest, OutOfRangeIdsAreEngineErrorsNotCrashes) {
  const size_t n = graph_.NumVertices();
  const auto lines = Run("QUERY 0 " + std::to_string(n) + "\nQUERY " +
                         std::to_string(10 * n) + " 0\nKNN " +
                         std::to_string(n) + " 2\n");
  ASSERT_EQ(lines.size(), 3u);
  for (const auto& line : lines) {
    EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
    EXPECT_NE(line.find("out of range"), std::string::npos) << line;
  }
}

TEST_F(ServerProtocolTest, IdsBeyondVertexIdRangeAreRejectedNotTruncated) {
  // 4294967296 == 2^32 used to truncate through a 32-bit parse into vertex
  // 0 and answer as if the client had asked for it (found by the protocol
  // fuzzer; pinned by fuzz/regressions/protocol/id_truncation.txt).
  const auto lines = Run(
      "QUERY 4294967296 0\n"
      "KNN 4294967297 1\n"
      "QUERY 18446744073709551617 0\n");  // > 2^64: parse must fail too
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "ERR INVALID_ARGUMENT: usage: QUERY <s> <t>");
  EXPECT_EQ(lines[1], "ERR INVALID_ARGUMENT: usage: KNN <s> <k>");
  EXPECT_EQ(lines[2], "ERR INVALID_ARGUMENT: usage: QUERY <s> <t>");
}

TEST_F(ServerProtocolTest, UnterminatedFinalLineIsCountedNotSilentlyLost) {
  // A connection that closes mid-line used to discard the tail without a
  // trace. Finish() must still flush buffered answers and account for the
  // dropped partial under net.partial_line_dropped.
  auto* counter = obs::MetricsRegistry::Global().GetCounter(
      "net.partial_line_dropped");
  const uint64_t before = counter->Value();
  ServerLoopOptions options;
  options.batch = 8;  // keep the complete line buffered until Finish
  LineProtocolHandler handler(engine_, options);
  std::string out;
  EXPECT_TRUE(handler.Consume("QUERY 0 1\nQUERY 2 3", &out));
  EXPECT_EQ(handler.frames(), 1u);  // only the terminated line is a frame
  handler.Finish(&out);
  const auto lines = Lines(out);
  ASSERT_EQ(lines.size(), 1u) << out;
  EXPECT_EQ(lines[0].rfind("DIST ", 0), 0u) << lines[0];
  EXPECT_EQ(counter->Value(), before + 1);
  // Finish on a cleanly-terminated stream counts nothing.
  LineProtocolHandler clean(engine_, options);
  std::string out2;
  EXPECT_TRUE(clean.Consume("QUERY 0 1\n", &out2));
  clean.Finish(&out2);
  EXPECT_EQ(counter->Value(), before + 1);
}

TEST_F(ServerProtocolTest, ConsumeReassemblesSplitFrames) {
  // Byte-at-a-time delivery (worst-case TCP fragmentation) must produce
  // exactly the same transcript as one large write.
  const std::string stream = "QUERY 0 5\r\nKNN 0 2\nQUERY 3 4\n";
  const obs::Counter* dropped =
      obs::MetricsRegistry::Global().GetCounter("net.partial_line_dropped");
  const uint64_t dropped_before = dropped->Value();
  ServerLoopOptions options;
  LineProtocolHandler handler(engine_, options);
  std::string out;
  for (char c : stream) {
    EXPECT_TRUE(handler.Consume(std::string_view(&c, 1), &out));
  }
  handler.Finish(&out);
  EXPECT_EQ(handler.frames(), 3u);
  EXPECT_EQ(dropped->Value(), dropped_before);
  const auto lines = Lines(out);
  ASSERT_EQ(lines.size(), 3u) << out;
  EXPECT_EQ(lines[0].rfind("DIST ", 0), 0u);
  EXPECT_EQ(lines[1].rfind("KNN ", 0), 0u);
  EXPECT_EQ(lines[2].rfind("DIST ", 0), 0u);
  // Transcript parity with single-write delivery of the same bytes.
  LineProtocolHandler whole(engine_, options);
  std::string out_whole;
  EXPECT_TRUE(whole.Consume(stream, &out_whole));
  whole.Finish(&out_whole);
  EXPECT_EQ(out, out_whole);
}

TEST_F(ServerProtocolTest, OversizedUnterminatedLineClosesAfterFlush) {
  ServerLoopOptions options;
  options.batch = 8;
  options.max_line_bytes = 32;
  LineProtocolHandler handler(engine_, options);
  std::string out;
  // A buffered answer is owed before the oversized garbage arrives; the
  // ERR must not overtake it.
  EXPECT_TRUE(handler.Consume("QUERY 0 1\n", &out));
  EXPECT_FALSE(handler.Consume(std::string(64, 'A'), &out));
  const auto lines = Lines(out);
  ASSERT_EQ(lines.size(), 2u) << out;
  EXPECT_EQ(lines[0].rfind("DIST ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("ERR INVALID_ARGUMENT: line exceeds", 0), 0u)
      << lines[1];
}

TEST_F(ServerProtocolTest, KnnBoundaryKs) {
  const size_t n = graph_.NumVertices();
  const auto lines =
      Run("KNN 0 0\nKNN 0 " + std::to_string(4 * n) + "\n");
  ASSERT_EQ(lines.size(), 2u);
  // k=0 is a well-formed request with an empty answer.
  EXPECT_EQ(lines[0], "KNN");
  // k > |V| clamps to every reachable vertex.
  std::istringstream big(lines[1]);
  std::string verb;
  big >> verb;
  EXPECT_EQ(verb, "KNN");
  size_t results = 0;
  std::string entry;
  while (big >> entry) ++results;
  EXPECT_EQ(results, n);
}

TEST_F(ServerProtocolTest, StatsReportsEngineCounters) {
  const auto lines = Run("QUERY 0 1\nSTATS\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1].rfind("STATS {", 0), 0u) << lines[1];
  EXPECT_NE(lines[1].find("\"served\": 1"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"latency_ns\""), std::string::npos);
}

TEST_F(ServerProtocolTest, MetricsReportsRegistryJson) {
  const auto lines = Run("QUERY 0 1\nKNN 0 2\nMETRICS\n");
  ASSERT_EQ(lines.size(), 3u);
  const std::string& metrics = lines[2];
  EXPECT_EQ(metrics.rfind("METRICS {", 0), 0u) << metrics;
  for (const char* key : {"\"counters\"", "\"gauges\"", "\"histograms\"",
                          "\"serve.backend.dijkstra.latency_ns\"",
                          "\"serve.served\""}) {
    EXPECT_NE(metrics.find(key), std::string::npos) << key;
  }
}

TEST_F(ServerProtocolTest, StatsFlushesBufferedRequestsFirst) {
  // STATS forces the pending batch out, so its snapshot includes the
  // preceding queries even when the batch threshold was not reached.
  const auto lines = Run("QUERY 0 1\nQUERY 0 2\nSTATS\n", /*batch=*/64);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("DIST ", 0), 0u);
  EXPECT_EQ(lines[1].rfind("DIST ", 0), 0u);
  EXPECT_NE(lines[2].find("\"served\": 2"), std::string::npos) << lines[2];
}

TEST_F(ServerProtocolTest, ReturnsNonEmptyLineCount) {
  std::istringstream in("QUERY 0 1\n\n\nSTATS\nBAD\n");
  std::ostringstream out;
  EXPECT_EQ(RunServerLoop(in, out, engine_), 3u);
}

TEST_F(ServerProtocolTest, ReloadWithoutManagerReportsFailedPrecondition) {
  const auto lines = Run("RELOAD /tmp/whatever.rne\nQUERY 0 1\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "ERR FAILED_PRECONDITION: no model manager attached "
            "(start rne_server with --model)");
  EXPECT_EQ(lines[1].rfind("DIST ", 0), 0u) << "loop keeps serving after";
}

TEST_F(ServerProtocolTest, ReloadVerbSwapsAndReportsVersion) {
  // A real (tiny, flat) model file; swap correctness itself is covered in
  // model_manager_test — this exercises the protocol wrapper.
  RneConfig config;
  config.dim = 16;
  config.hierarchical = false;
  config.fine_tune = false;
  config.train.vertex_samples = 5000;
  config.train.vertex_epochs = 2;
  const Rne model = Rne::Build(graph_, config);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rne_proto_reload.bin")
          .string();
  ASSERT_TRUE(model.Save(path).ok());

  ModelManager manager;
  std::istringstream in("QUERY 0 5\nRELOAD " + path +
                        "\nRELOAD\nRELOAD /nonexistent/model.rne\n");
  std::ostringstream out;
  ServerLoopOptions options;
  options.batch = 64;  // the buffered query must be flushed by RELOAD
  options.model_manager = &manager;
  RunServerLoop(in, out, engine_, options);
  const auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("DIST ", 0), 0u) << "answers stay ordered";
  EXPECT_EQ(lines[1], "RELOAD OK version=1 vertices=" +
                          std::to_string(graph_.NumVertices()));
  // Bare RELOAD re-runs the last path and publishes a new generation.
  EXPECT_EQ(lines[2], "RELOAD OK version=2 vertices=" +
                          std::to_string(graph_.NumVertices()));
  // A bad path is an ERR line and the published model is untouched.
  EXPECT_EQ(lines[3].rfind("ERR ", 0), 0u) << lines[3];
  EXPECT_EQ(manager.version(), 2u);
  std::filesystem::remove(path);
}

TEST_F(ServerProtocolTest, DistLinesCarryTheCachedFlag) {
  // Without a cache every answer is cached=0; with one, the second
  // identical query is a hit and says so on the wire.
  const auto uncached = Run("QUERY 0 5\nQUERY 0 5\n");
  ASSERT_EQ(uncached.size(), 2u);
  for (const auto& line : uncached) {
    EXPECT_NE(line.find(" cached=0"), std::string::npos) << line;
  }

  ResultCache cache;
  std::istringstream in("QUERY 0 5\nQUERY 0 5\n");
  std::ostringstream out;
  ServerLoopOptions options;
  options.batch = 1;  // flush per line so the repeat sees the insert
  options.cache = &cache;
  RunServerLoop(in, out, engine_, options);
  const auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find(" cached=0"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find(" cached=1"), std::string::npos) << lines[1];
  EXPECT_EQ(cache.Stats().hits, 1u);
}

TEST_F(ServerProtocolTest, StatsReportsCacheAndConnectionShape) {
  // No cache attached: the field is explicit null, not absent, so
  // dashboards can rely on the key.
  const auto plain = Run("STATS\n");
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_NE(plain[0].find("\"cache\": null"), std::string::npos) << plain[0];
  EXPECT_NE(plain[0].find("\"active_connections\": 0"), std::string::npos)
      << plain[0];

  // The first QUERY is not looked up: no distance has come from the exact
  // backend yet, so only the repeat counts, as a hit.
  ResultCache cache;
  std::istringstream in("QUERY 0 5\nQUERY 0 5\nSTATS\n");
  std::ostringstream out;
  ServerLoopOptions options;
  options.batch = 1;
  options.cache = &cache;
  RunServerLoop(in, out, engine_, options);
  const auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  const std::string& stats = lines[2];
  EXPECT_EQ(stats.rfind("STATS {", 0), 0u) << stats;
  for (const char* key :
       {"\"cache\": {", "\"hits\": 1", "\"misses\": 0", "\"hit_rate\"",
        "\"generation\"", "\"active_connections\": 0"}) {
    EXPECT_NE(stats.find(key), std::string::npos) << key << " in " << stats;
  }
}

TEST_F(ServerProtocolTest, ReloadInvalidatesTheAttachedCache) {
  // RELOAD through the protocol must flush the cache: the repeat query
  // right after the swap is a miss (cached=0), not a stale hit. The verb is
  // the only invalidation: one per successful RELOAD.
  RneConfig config;
  config.dim = 16;
  config.hierarchical = false;
  config.fine_tune = false;
  config.train.vertex_samples = 5000;
  config.train.vertex_epochs = 2;
  const Rne model = Rne::Build(graph_, config);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rne_proto_cache_reload.bin")
          .string();
  ASSERT_TRUE(model.Save(path).ok());

  ModelManager manager;
  ResultCache cache;
  std::istringstream in("QUERY 0 5\nQUERY 0 5\nRELOAD " + path +
                        "\nQUERY 0 5\nQUERY 0 5\n");
  std::ostringstream out;
  ServerLoopOptions options;
  options.batch = 1;
  options.cache = &cache;
  options.model_manager = &manager;
  RunServerLoop(in, out, engine_, options);
  std::filesystem::remove(path);

  const auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[0].find(" cached=0"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find(" cached=1"), std::string::npos) << lines[1];
  EXPECT_EQ(lines[2].rfind("RELOAD OK", 0), 0u) << lines[2];
  EXPECT_NE(lines[3].find(" cached=0"), std::string::npos)
      << "stale hit served after RELOAD: " << lines[3];
  EXPECT_NE(lines[4].find(" cached=1"), std::string::npos) << lines[4];
  EXPECT_EQ(cache.Stats().invalidations, 1u);
}

TEST_F(ServerProtocolTest, LargeBatchAnswersEveryQuery) {
  // A flush of 5,000 QUERYs goes to the engine as one batch and is
  // answered line for line.
  constexpr size_t kQueries = 5000;
  const size_t n = graph_.NumVertices();
  std::string input;
  for (size_t i = 0; i < kQueries; ++i) {
    input += "QUERY " + std::to_string(i % n) + " " +
             std::to_string((7 * i + 3) % n) + "\n";
  }
  const auto lines = Run(input, kQueries);
  ASSERT_EQ(lines.size(), kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    ASSERT_EQ(lines[i].rfind("DIST ", 0), 0u) << i << ": " << lines[i];
  }
  const MetricsSnapshot metrics = engine_.Metrics();
  EXPECT_EQ(metrics.served, kQueries);
  EXPECT_EQ(metrics.failed, 0u);
}

TEST_F(ServerProtocolTest, StopFlagHaltsTheLoopBeforeNewReads) {
  // Graceful drain: with the stop flag already raised, the loop exits
  // without consuming queued input (rne_server raises it from SIGINT).
  std::atomic<bool> stop{true};
  std::istringstream in("QUERY 0 1\nQUERY 0 2\n");
  std::ostringstream out;
  ServerLoopOptions options;
  options.stop = &stop;
  EXPECT_EQ(RunServerLoop(in, out, engine_, options), 0u);
  EXPECT_TRUE(out.str().empty()) << out.str();
}

TEST(AppendDistanceTest, MatchesPrintfFixedTwoDecimals) {
  // The answer format is pinned byte-for-byte to the printf("%.2f") it
  // replaced, including round-half-even on exact ties, the widest finite
  // value, and both sides of every edge of the exact integer path.
  std::vector<double> values = {0.0,     -0.0,     0.005,    0.015,
                                0.125,   0.375,    0.625,    2.875,
                                1.005,   2.675,    1e-300,   DBL_MIN,
                                DBL_MAX, -DBL_MAX, 1e15 + 0.125,
                                INFINITY, -INFINITY};
  for (int i = 0; i < 4000; ++i) {
    for (const double tie : {i / 8.0,  // exact .x25/.x75 ties
                             i / 1000.0 + 0.005}) {  // nearest to a .xx5
      values.push_back(tie);
      values.push_back(std::nextafter(tie, 0.0));
      values.push_back(std::nextafter(tie, INFINITY));
      values.push_back(-tie);  // negatives take the to_chars path
    }
  }
  // The exact integer path covers +0.0 and positive normals below 2^52;
  // it computes value * 100 with a shift of s bits, and s reaches 64 just
  // below 2^-11. Probe both sides of each edge, and the subnormals the
  // to_chars path keeps.
  for (const double edge : {0x1p52, 0x1p-11, 0x1p53, DBL_MIN}) {
    double below = edge, above = edge;
    for (int i = 0; i < 64; ++i) {
      values.push_back(below);
      values.push_back(above);
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, INFINITY);
    }
  }
  for (const double v : {0x1p52 - 0.5, 0x1p52 - 0.25, 0x1p52 + 1.0,
                         0x1p52 - 0.005, 4503599627370495.875, 0x1p-11 * 5.0,
                         0.0049999999999999, 0.00500000000000001,
                         DBL_TRUE_MIN, 2 * DBL_TRUE_MIN, 1e-310, -1e-310,
                         -DBL_MIN, -0x1p-11, -0x1p52,
                         std::numeric_limits<double>::quiet_NaN()}) {
    values.push_back(v);
  }
  Rng rng(20261017);
  for (int i = 0; i < 50000; ++i) {
    values.push_back(rng.UniformReal(0.0, 1e6));
    values.push_back(rng.UniformReal(0.0, 10.0));
    const double any = std::bit_cast<double>(
        static_cast<uint64_t>(rng.engine()()));
    if (std::isfinite(any)) values.push_back(any);
  }
  size_t mismatches = 0;
  std::string got;
  std::vector<char> want(400);
  for (const double v : values) {
    got.clear();
    AppendDistance(v, &got);
    std::snprintf(want.data(), want.size(), "%.2f", v);
    if (got != want.data() && ++mismatches <= 5) {
      ADD_FAILURE() << "value " << v << ": got '" << got << "', printf '"
                    << want.data() << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

// The istringstream parsing HandleLine used before ParseRequestLine, kept as
// the oracle; it owns its strings where ParsedLine holds views.
struct OracleLine {
  ParsedLine::Kind kind = ParsedLine::Kind::kBlank;
  std::string verb;
  std::string argument;
  Request request;
};

OracleLine OracleParse(std::string_view line) {
  using Kind = ParsedLine::Kind;
  OracleLine result;
  std::istringstream parser{std::string(line)};
  std::string verb;
  parser >> verb;
  result.verb = verb;
  if (verb.empty()) return result;
  if (verb == "STATS") {
    result.kind = Kind::kStats;
    return result;
  }
  if (verb == "METRICS") {
    result.kind = Kind::kMetrics;
    return result;
  }
  if (verb == "RELOAD") {
    std::string path;
    parser >> path;
    result.kind = Kind::kReload;
    result.argument = path;
    return result;
  }
  constexpr long long kMaxId = std::numeric_limits<VertexId>::max();
  if (verb == "QUERY") {
    result.request.kind = RequestKind::kDistance;
    long long s = -1, t = -1;
    parser >> s >> t;
    if (parser.fail() || s < 0 || t < 0 || s > kMaxId || t > kMaxId) {
      result.kind = Kind::kUsageError;
      return result;
    }
    result.kind = Kind::kRequest;
    result.request.s = static_cast<VertexId>(s);
    result.request.t = static_cast<VertexId>(t);
    return result;
  }
  if (verb == "KNN") {
    result.request.kind = RequestKind::kKnn;
    long long s = -1, k = -1;
    parser >> s >> k;
    if (parser.fail() || s < 0 || k < 0 || s > kMaxId) {
      result.kind = Kind::kUsageError;
      return result;
    }
    result.kind = Kind::kRequest;
    result.request.s = static_cast<VertexId>(s);
    result.request.k = static_cast<size_t>(k);
    return result;
  }
  result.kind = Kind::kUnknownVerb;
  return result;
}

std::string Describe(ParsedLine::Kind kind, std::string_view verb,
                     std::string_view argument, const Request& request) {
  std::ostringstream out;
  out << "kind " << static_cast<int>(kind) << " verb '" << verb;
  out << "' arg '" << argument << "' request ";
  out << static_cast<int>(request.kind) << " " << request.s;
  out << " " << request.t << " " << request.k;
  return out.str();
}

// Compares one line's verdict and parsed values with the oracle's; returns
// false (after one failure message) on a mismatch.
bool SameVerdict(std::string_view line) {
  const OracleLine want = OracleParse(line);
  ParsedLine got;
  ParseRequestLine(line, &got);
  const std::string got_text =
      Describe(got.kind, got.verb, got.argument, got.request);
  const std::string want_text =
      Describe(want.kind, want.verb, want.argument, want.request);
  if (got_text == want_text) return true;
  ADD_FAILURE() << "line '" << line << "': " << got_text << ", oracle "
                << want_text;
  return false;
}

TEST(ParseRequestLineTest, MatchesIstringstreamOnEdgeTokenLines) {
  // One token per line; the empty line is an empty verb.
  const std::vector<std::string> verbs = Lines(R"(QUERY
QUERY
QUERY
KNN
KNN
STATS
METRICS
RELOAD
query
knn
Query
STATS2
FROB
QUERY1

QUER)");
  std::vector<std::string> numbers = Lines(R"(0
1
7
+1
+0
-0
-00
-1
007
+007
0000000000000000000000000000042
4294967295
4294967296
+4294967295
9223372036854775807
9223372036854775808
18446744073709551615
18446744073709551616
-9223372036854775808
-9223372036854775809
1x
x1
+
-
+-1
--1
++1
-+1
0x10
1e3
12.5
3,4
1-2
1+2
/tmp/m.rne
nan)");
  numbers.push_back(std::string("4\0", 2));
  numbers.push_back("\xc2\xa0");  // UTF-8 no-break space: not C isspace
  numbers.push_back(std::string(1, '\xff') + "7");
  std::vector<std::string> separators = {" ", " ", " ", "  ", ""};
  for (const char c : std::string(" \t\v\f\r\n")) {
    separators.emplace_back(1, c);
  }
  separators.push_back(" \t ");
  Rng rng(20261017);
  size_t compared = 0;
  for (int i = 0; i < 120000; ++i) {
    std::string line;
    if (rng.UniformIndex(4) == 0) {
      line += separators[rng.UniformIndex(separators.size())];
    }
    line += verbs[rng.UniformIndex(verbs.size())];
    const size_t tokens = rng.UniformIndex(5);
    for (size_t j = 0; j < tokens; ++j) {
      // Mostly separated, sometimes glued to the previous token.
      if (rng.UniformIndex(8) != 0) {
        line += separators[rng.UniformIndex(separators.size())];
      }
      if (rng.UniformIndex(6) == 0) {
        line += std::to_string(rng.UniformIndex(size_t{1} << 40));
      } else {
        line += numbers[rng.UniformIndex(numbers.size())];
      }
    }
    if (rng.UniformIndex(4) == 0) {
      line += separators[rng.UniformIndex(separators.size())];
    }
    if (!SameVerdict(line)) return;
    ++compared;
  }
  EXPECT_EQ(compared, 120000u);
}

TEST(ParseRequestLineTest, MatchesIstringstreamOnTheProtocolFuzzInputs) {
  size_t lines = 0;
  for (const char* sub : {"corpus", "regressions"}) {
    const std::string dir = std::string(RNE_FUZZ_DIR) + "/" + sub + "/protocol";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      // Framed the way Consume() frames: split at '\n', one '\r' stripped.
      size_t start = 0;
      while (start <= bytes.size()) {
        size_t nl = bytes.find('\n', start);
        if (nl == std::string::npos) nl = bytes.size();
        std::string_view line(bytes.data() + start, nl - start);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        EXPECT_TRUE(SameVerdict(line)) << entry.path();
        ++lines;
        start = nl + 1;
      }
    }
  }
  EXPECT_GT(lines, 20u);
}

TEST(ParseRequestLineTest, ReadsTheDocumentedForms) {
  ParsedLine parsed;
  ParseRequestLine("\tQUERY +7 -0 trailing words", &parsed);
  ASSERT_EQ(parsed.kind, ParsedLine::Kind::kRequest);
  EXPECT_EQ(parsed.request.s, 7u);
  EXPECT_EQ(parsed.request.t, 0u);
  ParseRequestLine("KNN 3 10x", &parsed);
  ASSERT_EQ(parsed.kind, ParsedLine::Kind::kRequest);
  EXPECT_EQ(parsed.request.k, 10u);
  ParseRequestLine("QUERY 1x 2", &parsed);
  EXPECT_EQ(parsed.kind, ParsedLine::Kind::kUsageError);
  ParseRequestLine("QUERY 4294967295 9223372036854775808", &parsed);
  EXPECT_EQ(parsed.kind, ParsedLine::Kind::kUsageError);
  ParseRequestLine("RELOAD  /tmp/a.rne extra", &parsed);
  ASSERT_EQ(parsed.kind, ParsedLine::Kind::kReload);
  EXPECT_EQ(parsed.argument, "/tmp/a.rne");
  ParseRequestLine(" \v\f\r", &parsed);
  EXPECT_EQ(parsed.kind, ParsedLine::Kind::kBlank);
}

}  // namespace
}  // namespace rne::serve
