// Command-line front end for the RNE library: generate synthetic networks,
// train models on DIMACS graphs, evaluate accuracy/latency, and run queries.
//
//   rne_tool generate --rows 64 --cols 64 --seed 1 --gr net.gr --co net.co
//   rne_tool build    --gr net.gr --co net.co --dim 64 --model city.rne
//   rne_tool train    (alias for build) ... --threads 8 parallelizes the
//                     partition build (deterministic) and SGD training
//   rne_tool eval     --gr net.gr --co net.co --model city.rne --pairs 5000
//   rne_tool query    --model city.rne --s 17 --t 9000
//   rne_tool knn      --model city.rne --s 17 --k 5
//   rne_tool verify   city.rne [--deep]
//
// eval/query/knn accept --mmap (serve the model zero-copy from a read-only
// mapping; every checksum is still verified at load). verify lists the
// section table.
//
// Serving commands (query/knn) degrade gracefully: when the model file is
// missing or corrupt and --gr is given, they log the load failure and answer
// exactly via Dijkstra instead of aborting. For sustained traffic use
// rne_server, which keeps the index resident across queries.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "algo/dijkstra.h"
#include "algo/distance_sampler.h"
#include "core/kernels.h"
#include "core/rne.h"
#include "core/rne_index.h"
#include "graph/dimacs.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "serve/model_manager.h"
#include "util/arg_parser.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace rne::tool {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

StatusOr<Graph> LoadGraphArg(const ArgParser& args) {
  const std::string gr = args.Get("gr", "");
  if (gr.empty()) return Status::InvalidArgument("--gr <file> is required");
  return LoadDimacs(gr, args.Get("co", ""));
}

/// Loads the model, from a read-only mapping under --mmap.
StatusOr<Rne> LoadModelArg(const ArgParser& args) {
  return Rne::Load(args.Get("model", "model.rne"),
                   args.Has("mmap") ? LoadMode::kMmap : LoadMode::kHeap);
}

int CmdGenerate(const ArgParser& args) {
  FlagReader flags(args);
  RoadNetworkConfig cfg;
  cfg.rows = static_cast<size_t>(flags.Int("rows", 64));
  cfg.cols = static_cast<size_t>(flags.Int("cols", 64));
  cfg.seed = static_cast<uint64_t>(flags.Int("seed", 1));
  if (!flags.status().ok()) return Fail(flags.status().ToString());
  const Graph g = MakeRoadNetwork(cfg);
  const std::string gr = args.Get("gr", "network.gr");
  const Status st = SaveDimacs(g, gr, args.Get("co", ""));
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %s: %zu vertices, %zu edges\n", gr.c_str(),
              g.NumVertices(), g.NumEdges());
  return 0;
}

/// Writes `content` to `path` (plain write; metrics/trace sidecars do not
/// need the crash-safe envelope).
Status WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content << "\n";
  if (!out) return Status::IoError("cannot write " + path);
  return Status::Ok();
}

int CmdBuild(const ArgParser& args) {
  FlagReader flags(args);
  RneConfig config;
  config.dim = static_cast<size_t>(flags.Int("dim", 64));
  config.train.seed = static_cast<uint64_t>(flags.Int("seed", 13));
  // --threads drives both build phases: the partition build is deterministic
  // at any worker count (0 = hardware); SGD training stays sequential unless
  // threads > 1 is requested explicitly.
  const size_t threads = static_cast<size_t>(flags.Int("threads", 1));
  config.train.num_threads = threads;
  config.hierarchy.partition.num_threads = threads;
  if (!flags.status().ok()) return Fail(flags.status().ToString());
  auto graph = LoadGraphArg(args);
  if (!graph.ok()) return Fail(graph.status().ToString());
  config.train.verbose = true;
  Timer timer;
  RneBuildStats stats;
  const Rne model = Rne::Build(graph.value(), config, &stats);
  const std::string out = args.Get("model", "model.rne");
  const Status st = model.Save(out);
  if (!st.ok()) return Fail(st.ToString());
  static const char* const kPhaseNames[3] = {"hierarchy", "vertex",
                                             "fine-tune"};
  std::printf("  partition: %.0f ms (%u build thread%s)\n",
              stats.partition_seconds * 1e3, model.build_threads(),
              model.build_threads() == 1 ? "" : "s");
  std::printf("  labels: %.0f ms (exact label index %.1f MB, freed after "
              "training)\n",
              stats.label_seconds * 1e3,
              static_cast<double>(stats.label_index_bytes) / 1048576.0);
  for (int phase = 0; phase < 3; ++phase) {
    if (stats.phase_samples[phase] == 0) continue;
    const double secs = stats.phase_seconds[phase];
    std::printf("  phase %d (%s): %.0f ms, %zu samples (%.0f samples/s)\n",
                phase + 1, kPhaseNames[phase], secs * 1e3,
                stats.phase_samples[phase],
                secs > 0.0 ? static_cast<double>(stats.phase_samples[phase]) /
                                 secs
                           : 0.0);
  }
  std::printf(
      "trained d=%zu model in %.1fs (%zu samples, %zu SGD thread%s, kernel "
      "backend %s) and wrote %s (%.1f MB)\n",
      model.dim(), timer.ElapsedSeconds(), stats.samples_processed,
      stats.train_threads, stats.train_threads == 1 ? "" : "s",
      KernelBackendName(), out.c_str(),
      static_cast<double>(model.IndexBytes()) / 1048576.0);
  // --metrics-out: registry counters/gauges/histograms plus the per-phase
  // span ring in one JSON object. --trace-out: the same spans in
  // chrome://tracing "traceEvents" form (open via chrome://tracing or
  // https://ui.perfetto.dev).
  if (args.Has("metrics-out")) {
    const std::string json = "{\"metrics\":" +
                             obs::MetricsRegistry::Global().ToJson() +
                             ",\"trace\":" + obs::TraceJson() + "}";
    const Status ws = WriteTextFile(args.Get("metrics-out", ""), json);
    if (!ws.ok()) return Fail(ws.ToString());
    std::printf("wrote metrics to %s\n", args.Get("metrics-out", "").c_str());
  }
  if (args.Has("trace-out")) {
    const Status ws =
        WriteTextFile(args.Get("trace-out", ""), obs::TraceChromeJson());
    if (!ws.ok()) return Fail(ws.ToString());
    std::printf("wrote chrome://tracing events to %s\n",
                args.Get("trace-out", "").c_str());
  }
  return 0;
}

int CmdEval(const ArgParser& args) {
  FlagReader flags(args);
  const auto n = static_cast<size_t>(flags.Int("pairs", 5000));
  const auto seed = static_cast<uint64_t>(flags.Int("seed", 97));
  if (!flags.status().ok()) return Fail(flags.status().ToString());
  auto graph = LoadGraphArg(args);
  if (!graph.ok()) return Fail(graph.status().ToString());
  auto model = LoadModelArg(args);
  if (!model.ok()) return Fail(model.status().ToString());
  if (model.value().NumVertices() != graph.value().NumVertices()) {
    return Fail("model and graph vertex counts differ");
  }
  DistanceSampler sampler(graph.value());
  Rng rng(seed);
  const auto val = sampler.RandomPairs(n, rng);
  double err = 0.0;
  size_t count = 0;
  for (const auto& s : val) {
    if (s.dist <= 0.0 || s.dist == kInfDistance) continue;
    err += std::abs(model.value().Query(s.s, s.t) - s.dist) / s.dist;
    ++count;
  }
  Timer timer;
  double sink = 0.0;
  for (const auto& s : val) sink += model.value().Query(s.s, s.t);
  const double ns = static_cast<double>(timer.ElapsedNanos()) /
                    static_cast<double>(val.size());
  if (sink < 0) return 1;  // keep the loop alive
  std::printf("mean relative error: %.3f%% over %zu pairs\n",
              100.0 * err / static_cast<double>(count), count);
  std::printf("query latency: %.0f ns\n", ns);
  return 0;
}

/// Validates a --s/--t style vertex id against `n` vertices; ids are user
/// input, so a bad one is InvalidArgument — never UB on a model lookup.
Status CheckVertexId(const char* name, long raw, size_t n) {
  if (raw < 0 || static_cast<unsigned long>(raw) >= n) {
    return Status::InvalidArgument(
        "--" + std::string(name) + " " + std::to_string(raw) +
        " out of range [0, " + std::to_string(n) + ")");
  }
  return Status::Ok();
}

/// Loads the graph for exact-Dijkstra fallback after a model load failure.
/// Returns the graph, or an error explaining both failures.
StatusOr<Graph> FallbackGraph(const ArgParser& args,
                              const Status& load_status) {
  std::fprintf(stderr, "warning: model load failed (%s)\n",
               load_status.ToString().c_str());
  if (args.Get("gr", "").empty()) {
    return Status::FailedPrecondition(
        "model unusable and no --gr graph given for exact fallback");
  }
  std::fprintf(stderr, "warning: serving exact Dijkstra answers instead\n");
  return LoadGraphArg(args);
}

int CmdQuery(const ArgParser& args) {
  FlagReader flags(args);
  const long raw_s = flags.Int("s", 0);
  const long raw_t = flags.Int("t", 1);
  if (!flags.status().ok()) return Fail(flags.status().ToString());
  if (args.Has("exact")) {
    auto graph = LoadGraphArg(args);
    if (!graph.ok()) return Fail(graph.status().ToString());
    const size_t n = graph.value().NumVertices();
    Status st = CheckVertexId("s", raw_s, n);
    if (st.ok()) st = CheckVertexId("t", raw_t, n);
    if (!st.ok()) return Fail(st.ToString());
    DijkstraSearch dij(graph.value());
    std::printf("%.2f\n", dij.Distance(static_cast<VertexId>(raw_s),
                                       static_cast<VertexId>(raw_t)));
    return 0;
  }
  auto model = LoadModelArg(args);
  if (!model.ok()) {
    auto graph = FallbackGraph(args, model.status());
    if (!graph.ok()) return Fail(graph.status().ToString());
    const size_t n = graph.value().NumVertices();
    Status st = CheckVertexId("s", raw_s, n);
    if (st.ok()) st = CheckVertexId("t", raw_t, n);
    if (!st.ok()) return Fail(st.ToString());
    DijkstraSearch dij(graph.value());
    std::printf("%.2f\n", dij.Distance(static_cast<VertexId>(raw_s),
                                       static_cast<VertexId>(raw_t)));
    return 0;
  }
  const size_t n = model.value().NumVertices();
  Status st = CheckVertexId("s", raw_s, n);
  if (st.ok()) st = CheckVertexId("t", raw_t, n);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("%.2f\n", model.value().Query(static_cast<VertexId>(raw_s),
                                            static_cast<VertexId>(raw_t)));
  return 0;
}

int CmdKnn(const ArgParser& args) {
  FlagReader flags(args);
  const long raw_s = flags.Int("s", 0);
  const auto k = static_cast<size_t>(std::max(0L, flags.Int("k", 5)));
  if (!flags.status().ok()) return Fail(flags.status().ToString());
  auto model = LoadModelArg(args);
  if (!model.ok()) {
    auto graph = FallbackGraph(args, model.status());
    if (!graph.ok()) return Fail(graph.status().ToString());
    const size_t n = graph.value().NumVertices();
    const Status st = CheckVertexId("s", raw_s, n);
    if (!st.ok()) return Fail(st.ToString());
    DijkstraSearch dij(graph.value());
    const auto& dist = dij.AllDistances(static_cast<VertexId>(raw_s));
    std::vector<std::pair<double, VertexId>> order;
    order.reserve(n);
    for (VertexId v = 0; v < n; ++v) {
      if (dist[v] != kInfDistance) order.emplace_back(dist[v], v);
    }
    const size_t take = std::min(k, order.size());
    std::partial_sort(order.begin(), order.begin() + take, order.end());
    for (size_t i = 0; i < take; ++i) {
      std::printf("%u %.2f\n", order[i].second, order[i].first);
    }
    return 0;
  }
  const Status st = CheckVertexId("s", raw_s, model.value().NumVertices());
  if (!st.ok()) return Fail(st.ToString());
  const RneIndex index(&model.value());
  for (const auto& [v, d] : index.Knn(static_cast<VertexId>(raw_s), k)) {
    std::printf("%u %.2f\n", v, d);
  }
  return 0;
}

int CmdVerify(const ArgParser& args) {
  std::string path = args.Get("file", "");
  if (path.empty() && !args.positionals().empty()) {
    path = args.positionals().front();
  }
  if (path.empty()) {
    return Fail("usage: rne_tool verify <index-file> [--deep]");
  }
  // Same structural check ModelManager runs before a hot swap, so a file
  // that passes here is exactly a file RELOAD would accept structurally.
  auto info = serve::VerifyIndexFile(path);
  if (!info.ok()) return Fail(path + ": " + info.status().ToString());
  std::printf("%s: OK (%s, format v%u, %llu payload bytes)\n", path.c_str(),
              IndexKindName(info.value().index_magic),
              info.value().format_version,
              static_cast<unsigned long long>(info.value().payload_size));
  for (const SectionInfo& sec : info.value().sections) {
    std::printf("  section 0x%02x: offset %llu, %llu bytes\n", sec.tag,
                static_cast<unsigned long long>(sec.offset),
                static_cast<unsigned long long>(sec.size));
  }
  if (args.Has("deep")) {
    // Full typed deserialize — catches payload-level problems the envelope
    // checksums cannot see (e.g. inconsistent section lengths).
    if (info.value().index_magic != kRneMagic) {
      std::printf("%s: deep verify skipped (only %s payloads supported)\n",
                  path.c_str(), IndexKindName(kRneMagic));
      return 0;
    }
    auto model = Rne::Load(path);
    if (!model.ok()) return Fail(path + ": " + model.status().ToString());
    std::printf("%s: deep OK (%zu vertices, dim %zu)\n", path.c_str(),
                model.value().NumVertices(), model.value().dim());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: rne_tool <generate|build|train|eval|query|knn|verify> "
                 "[--key value ...]\n");
    return 1;
  }
  auto args =
      ArgParser::Parse(argc, argv, 2,
                       /*switches=*/{"exact", "deep", "mmap"});
  if (!args.ok()) return Fail(args.status().ToString());
  const std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(args.value());
  // `train` is an alias for `build` (the build IS the training run).
  if (cmd == "build" || cmd == "train") return CmdBuild(args.value());
  if (cmd == "eval") return CmdEval(args.value());
  if (cmd == "query") return CmdQuery(args.value());
  if (cmd == "knn") return CmdKnn(args.value());
  if (cmd == "verify") return CmdVerify(args.value());
  return Fail("unknown command: " + cmd);
}

}  // namespace
}  // namespace rne::tool

int main(int argc, char** argv) { return rne::tool::Main(argc, argv); }
