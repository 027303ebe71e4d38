// Fig 14 reproduction: mean relative error vs training-set size (as a ratio
// of |V|) for RNE against DR-1K / DR-10K / DR-100K (DeepWalk + MLP
// regression) plus the raw Manhattan / Euclidean baselines. Expected shape:
// with small training sets DR is competitive (pretrained features), with
// >= 1x|V| samples RNE is clearly lowest; geo baselines are flat lines.
#include <cstdio>

#include "baselines/geo.h"
#include "bench/bench_common.h"
#include "core/trainer.h"
#include "nn/dr_model.h"

namespace rne::bench {
namespace {

void Run() {
  const Dataset ds = MakeBjDataset();
  const size_t n = ds.graph.NumVertices();
  const auto val = ValidationSet(ds.graph, 10000);
  TableWriter table({"model", "train_ratio_of_V", "mean_rel_error_%"});

  // Flat reference lines.
  {
    GeoEstimator euclid(ds.graph, GeoMetric::kEuclidean);
    GeoEstimator manhattan(ds.graph, GeoMetric::kManhattan);
    const double ee = 100.0 * EvalError(euclid, val).mean_rel;
    const double me = 100.0 * EvalError(manhattan, val).mean_rel;
    for (const double ratio : {0.25, 1.0, 4.0, 16.0}) {
      table.AddRow({"Euclidean", TableWriter::Fmt(ratio, 2),
                    TableWriter::Fmt(ee, 3)});
      table.AddRow({"Manhattan", TableWriter::Fmt(ratio, 2),
                    TableWriter::Fmt(me, 3)});
    }
    std::printf("[fig14] Euclidean %.2f%%, Manhattan %.2f%%\n", ee, me);
    std::fflush(stdout);
  }

  DistanceSampler sampler(ds.graph);
  for (const double ratio : {0.25, 1.0, 4.0, 16.0}) {
    const auto num_samples =
        static_cast<size_t>(ratio * static_cast<double>(n));
    Rng rng(55);
    const auto train = sampler.ComputeDistances(
        RandomVertexPairs(n, num_samples, rng, 8));

    // DR variants share the training set.
    for (const size_t params : {1000u, 10000u, 100000u}) {
      DrConfig cfg;
      cfg.deepwalk.dim = 64;
      cfg.deepwalk.walks_per_vertex = 4;
      cfg.deepwalk.epochs = 1;
      cfg.target_params = params;
      cfg.epochs = 12;
      DrModel dr(ds.graph, cfg);
      dr.Train(train);
      const double err = 100.0 * dr.MeanRelativeError(val);
      const std::string name = "DR-" + std::to_string(params / 1000) + "K";
      table.AddRow(
          {name, TableWriter::Fmt(ratio, 2), TableWriter::Fmt(err, 3)});
      std::printf("[fig14] %s ratio=%.2f err=%.3f%%\n", name.c_str(), ratio,
                  err);
      std::fflush(stdout);
    }

    // RNE with a budget matched to the same sample count: feed the drawn
    // training set through the vertex phase of a hierarchical model.
    {
      HierarchyOptions hopt;
      hopt.fanout = 4;
      hopt.leaf_threshold = 64;
      const PartitionHierarchy hier = PartitionHierarchy::Build(ds.graph, hopt);
      TrainConfig cfg;
      cfg.dim = 64;
      cfg.level_samples = std::max<size_t>(2000, num_samples / 8);
      cfg.level_epochs = 4;
      cfg.vertex_samples = num_samples;
      cfg.vertex_epochs = 8;
      cfg.finetune_rounds = 0;
      Trainer trainer(ds.graph, hier, cfg);
      trainer.TrainAll();
      const double err = 100.0 * trainer.MeanRelativeError(val);
      table.AddRow(
          {"RNE", TableWriter::Fmt(ratio, 2), TableWriter::Fmt(err, 3)});
      std::printf("[fig14] RNE ratio=%.2f err=%.3f%%\n", ratio, err);
      std::fflush(stdout);
    }
  }
  Emit(table, "Fig 14: RNE vs DeepWalk-regression baselines (BJ')",
       "fig14_dr");
}

}  // namespace
}  // namespace rne::bench

int main() {
  rne::bench::Run();
  return 0;
}
