// Table IV reproduction: index size (MB) and index building time (s) for
// H2H, CH, Distance Oracle, ACH, LT and RNE on the three synthetic datasets.
// (The paper reports minutes; at our scaled dataset sizes seconds are the
// natural unit — the *ordering* of methods is the reproduced shape.)
//
// --threads 1,2,4,8 switches to the parallel-build sweep: every build phase
// (CH, H2H, partition, ALT, G-tree) is timed once per thread count on BJ'
// and the per-phase speedup curves land in bench_results/build_parallel.json.
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/alt.h"
#include "baselines/ch.h"
#include "baselines/distance_oracle.h"
#include "baselines/gtree.h"
#include "baselines/h2h.h"
#include "bench/bench_common.h"
#include "util/arg_parser.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rne::bench {
namespace {

void Run() {
  TableWriter sizes({"method", "BJ'", "FLA'", "USW'"});
  TableWriter times({"method", "BJ'", "FLA'", "USW'"});
  const std::vector<std::string> methods = {"H2H", "CH", "DistanceOracle",
                                            "ACH", "LT", "RNE"};
  std::vector<std::vector<std::string>> size_cells(
      methods.size(), std::vector<std::string>{"-", "-", "-"});
  std::vector<std::vector<std::string>> time_cells = size_cells;

  auto datasets = MakeDatasets();
  for (size_t d = 0; d < datasets.size(); ++d) {
    const Dataset& ds = datasets[d];
    std::printf("[table4] dataset %s: %zu vertices\n", ds.name.c_str(),
                ds.graph.NumVertices());
    std::fflush(stdout);

    auto record = [&](size_t row, double seconds, size_t bytes) {
      size_cells[row][d] =
          TableWriter::Fmt(static_cast<double>(bytes) / (1024.0 * 1024.0), 2);
      time_cells[row][d] = TableWriter::Fmt(seconds, 2);
      std::printf("[table4]   %-15s size=%sMB build=%ss\n",
                  methods[row].c_str(), size_cells[row][d].c_str(),
                  time_cells[row][d].c_str());
      std::fflush(stdout);
    };

    {
      Timer t;
      H2HIndex h2h(ds.graph);
      record(0, t.ElapsedSeconds(), h2h.IndexBytes());
    }
    {
      Timer t;
      ContractionHierarchy ch(ds.graph);
      record(1, t.ElapsedSeconds(), ch.IndexBytes());
    }
    if (ds.name == "BJ'") {
      DistanceOracleOptions opt;
      opt.epsilon = 0.5;
      Timer t;
      DistanceOracle oracle(ds.graph, opt);
      record(2, t.ElapsedSeconds(), oracle.IndexBytes());
    }
    {
      ChOptions opt;
      opt.epsilon = 0.1;
      Timer t;
      ContractionHierarchy ach(ds.graph, opt);
      record(3, t.ElapsedSeconds(), ach.IndexBytes());
    }
    {
      Rng rng(41);
      Timer t;
      AltIndex lt(ds.graph, ds.lt_landmarks, rng);
      record(4, t.ElapsedSeconds(), lt.IndexBytes());
    }
    {
      // RNE build time includes sampling + training, as in the paper.
      Timer t;
      const Rne model = Rne::Build(
          ds.graph, DefaultRneConfig(ds.rne_dim, ds.graph.NumVertices()));
      record(5, t.ElapsedSeconds(), model.IndexBytes());
    }
  }

  for (size_t m = 0; m < methods.size(); ++m) {
    sizes.AddRow(
        {methods[m], size_cells[m][0], size_cells[m][1], size_cells[m][2]});
    times.AddRow(
        {methods[m], time_cells[m][0], time_cells[m][1], time_cells[m][2]});
  }
  Emit(sizes, "Table IV (a): index size (MB)", "table4_index_size");
  Emit(times, "Table IV (b): index building time (s)", "table4_build_time");
}

/// One build phase of the parallel sweep: name + a builder that runs the
/// whole phase at the given thread count. Every builder is deterministic in
/// the thread count, so the sweep measures the same work at every point.
struct SweepPhase {
  std::string name;
  std::function<void(size_t threads)> build;
};

void RunThreadSweep(const std::vector<size_t>& thread_counts) {
  const Dataset ds = MakeBjDataset();
  std::printf("[build_parallel] dataset %s: %zu vertices\n", ds.name.c_str(),
              ds.graph.NumVertices());
  std::fflush(stdout);

  const std::vector<SweepPhase> phases = {
      {"ch",
       [&](size_t t) {
         ChOptions opt;
         opt.num_threads = t;
         ContractionHierarchy ch(ds.graph, opt);
       }},
      {"h2h",
       [&](size_t t) {
         H2HOptions opt;
         opt.num_threads = t;
         H2HIndex h2h(ds.graph, opt);
       }},
      {"partition",
       [&](size_t t) {
         HierarchyOptions opt;
         opt.partition.num_threads = t;
         PartitionHierarchy::Build(ds.graph, opt);
       }},
      {"alt",
       [&](size_t t) {
         Rng rng(41);
         AltIndex lt(ds.graph, ds.lt_landmarks, rng, t);
       }},
      {"gtree",
       [&](size_t t) {
         GTreeOptions opt;
         opt.num_threads = t;
         GTree gtree(ds.graph, opt);
       }},
  };

  // seconds[p][i]: phase p built with thread_counts[i] workers.
  std::vector<std::vector<double>> seconds(
      phases.size(), std::vector<double>(thread_counts.size(), 0.0));
  for (size_t p = 0; p < phases.size(); ++p) {
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      Timer timer;
      phases[p].build(thread_counts[i]);
      seconds[p][i] = timer.ElapsedSeconds();
      std::printf("[build_parallel]   %-10s threads=%zu %.3fs\n",
                  phases[p].name.c_str(), thread_counts[i], seconds[p][i]);
      std::fflush(stdout);
    }
  }

  std::vector<std::string> header = {"phase"};
  for (const size_t t : thread_counts) {
    header.push_back("t=" + std::to_string(t) + " (s)");
  }
  for (const size_t t : thread_counts) {
    header.push_back("t=" + std::to_string(t) + " (x)");
  }
  TableWriter table(header);
  // Speedups are against the sweep's first point (conventionally t=1).
  std::ostringstream json;
  json << "{\n  \"dataset\": \"" << ds.name << "\",\n  \"vertices\": "
       << ds.graph.NumVertices() << ",\n  \"threads\": [";
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    json << (i == 0 ? "" : ", ") << thread_counts[i];
  }
  json << "],\n  \"phases\": [\n";
  for (size_t p = 0; p < phases.size(); ++p) {
    std::vector<std::string> row = {phases[p].name};
    json << "    {\"name\": \"" << phases[p].name << "\", \"seconds\": [";
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      row.push_back(TableWriter::Fmt(seconds[p][i], 3));
      json << (i == 0 ? "" : ", ") << TableWriter::Fmt(seconds[p][i], 6);
    }
    json << "], \"speedup\": [";
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      const double speedup =
          seconds[p][i] > 0.0 ? seconds[p][0] / seconds[p][i] : 1.0;
      row.push_back(TableWriter::Fmt(speedup, 2));
      json << (i == 0 ? "" : ", ") << TableWriter::Fmt(speedup, 3);
    }
    json << "]}" << (p + 1 == phases.size() ? "" : ",") << "\n";
    table.AddRow(row);
  }
  json << "  ]\n}\n";

  Emit(table, "Parallel index build sweep (BJ')", "build_parallel");
  const std::string path = ResultsDir() + "/build_parallel.json";
  std::ofstream out(path, std::ios::trunc);
  out << json.str();
  if (out) {
    std::printf("[build_parallel] wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "[build_parallel] cannot write %s\n", path.c_str());
  }
}

}  // namespace
}  // namespace rne::bench

int main(int argc, char** argv) {
  auto args = rne::ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return 1;
  }
  const std::string threads = args.value().Get("threads", "");
  if (threads.empty()) {
    rne::bench::Run();
    return 0;
  }
  // "--threads 1,2,4" selects the sweep; each element is a worker count.
  std::vector<size_t> counts;
  std::stringstream list(threads);
  std::string token;
  while (std::getline(list, token, ',')) {
    const long value = std::atol(token.c_str());
    if (value <= 0) {
      std::fprintf(stderr, "error: bad --threads element '%s'\n",
                   token.c_str());
      return 1;
    }
    counts.push_back(static_cast<size_t>(value));
  }
  rne::bench::RunThreadSweep(counts);
  return 0;
}
