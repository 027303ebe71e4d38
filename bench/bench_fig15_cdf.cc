// Fig 15 reproduction: cumulative percentage of validation queries whose
// relative error is below a threshold, for RNE, LT, ACH, Distance Oracle
// (BJ' only), Manhattan and Euclidean. Expected shape: RNE's CDF dominates
// the other approximate methods; geo baselines trail far behind.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "baselines/alt.h"
#include "baselines/ch.h"
#include "baselines/distance_oracle.h"
#include "baselines/geo.h"
#include "bench/bench_common.h"
#include "util/rng.h"

namespace rne::bench {
namespace {

void Run() {
  TableWriter table({"dataset", "method", "error_threshold_%", "pct_queries"});
  const std::vector<double> thresholds = {0.5, 1, 2, 3, 5, 8, 12, 20, 35, 50};

  auto datasets = MakeDatasets();
  for (const Dataset& ds : datasets) {
    std::printf("[fig15] dataset %s\n", ds.name.c_str());
    std::fflush(stdout);
    const auto val = ValidationSet(ds.graph, 20000);

    auto record = [&](const std::string& name, DistanceMethod& method) {
      std::vector<double> rel_errors;
      rel_errors.reserve(val.size());
      for (const auto& s : val) {
        if (s.dist <= 0.0 || s.dist == kInfDistance) continue;
        rel_errors.push_back(
            100.0 * std::abs(method.Query(s.s, s.t) - s.dist) / s.dist);
      }
      std::sort(rel_errors.begin(), rel_errors.end());
      for (const double thresh : thresholds) {
        const auto below = std::upper_bound(rel_errors.begin(),
                                            rel_errors.end(), thresh) -
                           rel_errors.begin();
        const double below_pct = 100.0 * static_cast<double>(below) /
                                 static_cast<double>(rel_errors.size());
        table.AddRow({ds.name, name, TableWriter::Fmt(thresh, 1),
                      TableWriter::Fmt(below_pct, 1)});
      }
      std::printf("[fig15]   %s done\n", name.c_str());
      std::fflush(stdout);
    };

    GeoEstimator euclid(ds.graph, GeoMetric::kEuclidean);
    record("Euclidean", euclid);
    GeoEstimator manhattan(ds.graph, GeoMetric::kManhattan);
    record("Manhattan", manhattan);
    {
      ChOptions opt;
      opt.epsilon = 0.1;
      ContractionHierarchy ach(ds.graph, opt);
      record("ACH", ach);
    }
    if (ds.name == "BJ'") {
      DistanceOracleOptions opt;
      opt.epsilon = 0.5;
      DistanceOracle oracle(ds.graph, opt);
      record("DistanceOracle", oracle);
    }
    {
      Rng rng(41);
      AltIndex lt(ds.graph, ds.lt_landmarks, rng);
      record("LT", lt);
    }
    {
      const Rne& model = CachedRne(ds);
      RneMethod rne(&model);
      record("RNE", rne);
    }
  }
  Emit(table, "Fig 15: cumulative error distribution", "fig15_cdf");
}

}  // namespace
}  // namespace rne::bench

int main() {
  rne::bench::Run();
  return 0;
}
