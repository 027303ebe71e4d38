#include "bench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "util/rng.h"
#include "util/timer.h"

namespace rne::bench {

size_t BenchScale() {
  const char* env = std::getenv("RNE_BENCH_SCALE");
  if (env == nullptr) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v >= 1 ? static_cast<size_t>(v) : 1;
}

namespace {

Dataset MakeDataset(const std::string& name, size_t side, size_t dim,
                    size_t landmarks, uint64_t seed) {
  RoadNetworkConfig cfg;
  cfg.rows = side;
  cfg.cols = side;
  cfg.num_highways = std::max<size_t>(2, side / 16);
  cfg.seed = seed;
  return Dataset{name, MakeRoadNetwork(cfg), dim, landmarks};
}

}  // namespace

std::vector<Dataset> MakeDatasets(size_t max_datasets) {
  const size_t s = BenchScale();
  std::vector<Dataset> out;
  // Scaled stand-ins for BJ (338k), FLA (1.07M), US-W (6.26M): the ratio
  // between consecutive datasets (~3-5x) is preserved; absolute sizes fit a
  // single small machine.
  if (max_datasets >= 1) out.push_back(MakeDataset("BJ'", 56 * s, 64, 64, 11));
  if (max_datasets >= 2) out.push_back(MakeDataset("FLA'", 96 * s, 96, 96, 12));
  if (max_datasets >= 3) {
    out.push_back(MakeDataset("USW'", 144 * s, 96, 96, 13));
  }
  return out;
}

Dataset MakeBjDataset() { return std::move(MakeDatasets(1)[0]); }

RneConfig DefaultRneConfig(size_t dim, size_t num_vertices) {
  RneConfig config;
  config.dim = dim;
  config.hierarchy.fanout = 4;
  config.hierarchy.leaf_threshold = 64;
  // Phase 1 places sub-graph embeddings: a modest per-level budget suffices
  // because the number of sub-graphs per level is small.
  config.train.level_samples = std::max<size_t>(20000, 2 * num_vertices);
  config.train.level_epochs = 5;
  config.train.vertex_samples = 50 * num_vertices;
  config.train.vertex_epochs = 10;
  config.train.num_landmarks = 100;
  config.train.finetune_rounds = 5;
  config.train.finetune_samples = 15 * num_vertices;
  config.train.finetune_epochs = 3;
  config.train.grid_k = 16;
  // Training labels are H2H lookups (DESIGN.md §9), so source reuse saves
  // no time; 16 is kept because it shapes the samples the recorded figures
  // were trained on.
  config.train.source_reuse = 16;
  return config;
}

const Rne& CachedRne(const Dataset& ds) {
  static std::vector<std::pair<std::string, std::unique_ptr<Rne>>> registry;
  const std::string key = ds.name + "_" + std::to_string(ds.rne_dim) + "_" +
                          std::to_string(ds.graph.NumVertices());
  for (const auto& [k, model] : registry) {
    if (k == key) return *model;
  }
  const std::string path = ResultsDir() + "/cache/rne_" + key + ".model";
  auto loaded = Rne::Load(path);
  if (loaded.ok() &&
      loaded.value().NumVertices() == ds.graph.NumVertices()) {
    std::printf("[cache] loaded %s\n", path.c_str());
    registry.emplace_back(key,
                          std::make_unique<Rne>(std::move(loaded).value()));
    return *registry.back().second;
  }
  std::printf("[cache] training RNE for %s (d=%zu)\n", ds.name.c_str(),
              ds.rne_dim);
  std::fflush(stdout);
  auto model = std::make_unique<Rne>(Rne::Build(
      ds.graph, DefaultRneConfig(ds.rne_dim, ds.graph.NumVertices())));
  std::error_code ec;
  std::filesystem::create_directories(ResultsDir() + "/cache", ec);
  const Status st = model->Save(path);
  if (!st.ok()) {
    std::printf("[cache] save failed: %s\n", st.ToString().c_str());
  }
  registry.emplace_back(key, std::move(model));
  return *registry.back().second;
}

std::vector<DistanceSample> ValidationSet(const Graph& g, size_t n,
                                          uint64_t seed) {
  DistanceSampler sampler(g);
  Rng rng(seed);
  // Validation pairs reuse sources too (8 targets per source) so the exact
  // ground truth stays cheap on the bigger datasets.
  auto pairs = RandomVertexPairs(g.NumVertices(), n, rng, 8);
  return sampler.ComputeDistances(pairs);
}

ErrorStats EvalError(DistanceMethod& method,
                     const std::vector<DistanceSample>& val) {
  const ErrorSummary summary = EvaluateErrors(
      [&method](VertexId s, VertexId t) { return method.Query(s, t); }, val);
  return {summary.mean_rel, summary.mean_abs};
}

double MeasureQueryNanos(DistanceMethod& method,
                         const std::vector<DistanceSample>& val,
                         size_t repeats) {
  if (val.empty()) return 0.0;
  double sink = 0.0;
  Timer timer;
  for (size_t r = 0; r < repeats; ++r) {
    for (const auto& s : val) sink += method.Query(s.s, s.t);
  }
  const double nanos = static_cast<double>(timer.ElapsedNanos());
  // Prevent the optimizer from discarding the query loop.
  if (sink == -1.0) std::printf("impossible\n");
  return nanos / static_cast<double>(val.size() * repeats);
}

std::vector<std::vector<DistanceSample>> DistanceScaleGroups(
    const Graph& g, size_t num_groups, size_t per_group, uint64_t seed) {
  // Estimate the network diameter from a large random sample, then bucket.
  const auto samples =
      ValidationSet(g, num_groups * per_group * 4, seed);
  double diameter = 0.0;
  for (const auto& s : samples) {
    if (s.dist != kInfDistance) diameter = std::max(diameter, s.dist);
  }
  std::vector<std::vector<DistanceSample>> groups(num_groups);
  for (const auto& s : samples) {
    if (s.dist <= 0.0 || s.dist == kInfDistance) continue;
    const size_t group =
        std::min(num_groups - 1,
                 static_cast<size_t>(s.dist / diameter *
                                     static_cast<double>(num_groups)));
    if (groups[group].size() < per_group) groups[group].push_back(s);
  }
  return groups;
}

ZipfSampler::ZipfSampler(size_t n, double s) : s_(s) {
  if (n == 0) n = 1;
  cdf_.resize(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, s);
    cdf_[r] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.UniformReal(0.0, 1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<size_t>(it - cdf_.begin());
}

std::string ResultsDir() { return "bench_results"; }

void Emit(const TableWriter& table, const std::string& title,
          const std::string& csv_name) {
  table.Print(title);
  const std::string path = ResultsDir() + "/" + csv_name + ".csv";
  const Status status = table.WriteCsv(path);
  if (!status.ok()) {
    std::printf("(csv write failed: %s)\n", status.ToString().c_str());
  } else {
    std::printf("(csv: %s)\n", path.c_str());
  }
}

}  // namespace rne::bench
