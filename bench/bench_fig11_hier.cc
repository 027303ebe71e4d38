// Fig 11 reproduction: learning curves (error vs samples) for
//   RNE-Naive          flat vertex embedding
//   RNE-Hier           hierarchical embedding
//   RNE-Naive-AFT      flat + active fine-tuning
//   RNE-Hier-AFT       hierarchical + active fine-tuning
// Expected shape: Hier reaches a given error with far fewer samples than
// Naive; AFT pushes both below their plateau.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/trainer.h"

namespace rne::bench {
namespace {

void RunVariant(const Dataset& ds, const std::vector<DistanceSample>& val,
                bool hierarchical, bool aft, TableWriter* table) {
  HierarchyOptions hopt;
  hopt.fanout = 4;
  hopt.leaf_threshold = hierarchical ? 64 : ds.graph.NumVertices();
  if (!hierarchical) hopt.max_levels = 1;
  const PartitionHierarchy hier = PartitionHierarchy::Build(ds.graph, hopt);

  TrainConfig cfg;
  cfg.dim = 64;
  cfg.level_samples = 30000;
  cfg.level_epochs = 5;
  cfg.vertex_samples = 150000;
  cfg.vertex_epochs = 8;
  cfg.finetune_rounds = aft ? 3 : 0;
  cfg.finetune_samples = 40000;
  Trainer trainer(ds.graph, hier, cfg);
  trainer.SetValidation(val);
  if (hierarchical) trainer.TrainHierarchyPhase();
  trainer.TrainVertexPhase();
  trainer.FineTunePhase();

  const std::string name =
      std::string(hierarchical ? "RNE-Hier" : "RNE-Naive") +
      (aft ? "-AFT" : "");
  const auto& progress = trainer.progress();
  const size_t stride = std::max<size_t>(1, progress.size() / 12);
  for (size_t i = 0; i < progress.size(); i += stride) {
    table->AddRow({name, std::to_string(progress[i].samples_processed),
                   TableWriter::Fmt(100.0 * progress[i].mean_rel_error, 3)});
  }
  table->AddRow({name, std::to_string(progress.back().samples_processed),
                 TableWriter::Fmt(100.0 * progress.back().mean_rel_error, 3)});
  std::printf("[fig11] %-14s final err=%.3f%% (%zu samples)\n", name.c_str(),
              100.0 * progress.back().mean_rel_error,
              progress.back().samples_processed);
  std::fflush(stdout);
}

void Run() {
  const Dataset ds = MakeBjDataset();
  const auto val = ValidationSet(ds.graph, 10000);
  TableWriter table({"model", "samples_processed", "mean_rel_error_%"});
  RunVariant(ds, val, /*hierarchical=*/false, /*aft=*/false, &table);
  RunVariant(ds, val, /*hierarchical=*/true, /*aft=*/false, &table);
  RunVariant(ds, val, /*hierarchical=*/false, /*aft=*/true, &table);
  RunVariant(ds, val, /*hierarchical=*/true, /*aft=*/true, &table);
  Emit(table, "Fig 11: hierarchical training and fine-tuning (BJ')",
       "fig11_hier");
}

}  // namespace
}  // namespace rne::bench

int main() {
  rne::bench::Run();
  return 0;
}
