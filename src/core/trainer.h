// Hierarchical RNE training (Algorithm 1 of the paper).
//
// Three phases over the hierarchical model:
//   (1) hierarchy embedding: L top-down steps; step `lev` draws sub-graph
//       level samples for level lev and trains every level with learning
//       rate alpha_l = lr0 / (|l - lev| + 1), so the focused level moves the
//       most and already-converged upper levels drift the least;
//   (2) vertex embedding: upper levels frozen (alpha = 0), vertex-local
//       embeddings trained on landmark-based samples;
//   (3) active fine-tuning: repeatedly measure per-distance-bucket error on
//       held-out pairs and retrain the vertex level on samples drawn from
//       the under-fitted buckets (Local or Global assignment).
//
// Distances are normalized by a scale factor (mean sample distance) so the
// same learning rate works across datasets; the factor is part of the model.
//
// Training labels come from one exact H2H index built in the constructor and
// freed with the trainer: a label is an O(tree width) lookup instead of a
// graph search, and it equals Dijkstra's distance up to floating-point
// summation order (~1e-15 relative). Validation sets are labelled elsewhere
// by DistanceSampler (Dijkstra), so accuracy is never measured against the
// labeller.
//
// Parallel training (num_threads > 1): each epoch's sample order is cut
// into per-worker shards processed Hogwild-style — vertex-local rows are
// updated in place without locks (each sample touches only its two endpoint
// rows, so concurrent writes to the same row are rare and the occasional
// lost update is SGD noise), while upper-level node rows — touched by every
// sample in their subtree and therefore heavily contended — use local SGD:
// each worker trains a private view of the node rows (shared rows plus its
// own displacement), so its local trajectory telescopes exactly like
// sequential SGD, and at chunk barriers (every sgd_chunk samples per
// worker) the main thread folds the AVERAGE of the workers' displacements
// into the shared rows. When no node level trains (phases 2 and 3) nothing
// needs merging: the epoch is one pass with no barriers, and a gather reads
// the vertex row plus one precomputed row per leaf (the sum of the frozen
// node rows on the leaf's path). The order is shuffled globally once per
// TrainOnSamples call; later epochs reshuffle each shard's slice on its
// worker from a stream forked per shard. Under TSan the vertex-row accesses
// go through relaxed std::atomic_ref operations so the build is race-free;
// release builds use the raw SIMD kernels.
#ifndef RNE_CORE_TRAINER_H_
#define RNE_CORE_TRAINER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "algo/distance_sampler.h"
#include "baselines/h2h.h"
#include "core/hierarchical_model.h"
#include "core/sampler.h"
#include "util/thread_pool.h"

namespace rne {

struct TrainConfig {
  size_t dim = 64;
  /// Lp metric parameter (1 = recommended).
  double p = 1.0;
  /// Base learning rate: the approximate fraction of a sample's error
  /// corrected per SGD update (internally normalized by the dimension).
  double lr0 = 0.3;
  /// Learning-rate fraction at the final epoch of each phase (linear decay
  /// from 1.0); a low floor anneals away the SGD noise floor.
  double lr_final_fraction = 0.1;
  /// Init spread; node-local embeddings start uniform in
  /// +/- init_scale / dim.
  double init_scale = 1.0;

  // Phase 1 (hierarchy embedding).
  size_t level_samples = 20000;
  size_t level_epochs = 6;

  // Phase 2 (vertex embedding).
  size_t vertex_samples = 100000;
  size_t vertex_epochs = 8;
  size_t num_landmarks = 100;
  /// false = uniform random pairs instead of landmark pairs (Fig 12 ablation).
  bool landmark_sampling = true;
  /// Farthest-point landmark selection vs random landmarks.
  bool farthest_landmarks = true;

  // Phase 3 (active fine-tuning).
  size_t finetune_rounds = 3;
  size_t finetune_samples = 20000;
  size_t finetune_epochs = 3;
  /// Pairs per bucket used to estimate the error distribution each round.
  size_t finetune_eval_pairs_per_bucket = 200;
  size_t grid_k = 8;
  FineTuneStrategy finetune_strategy = FineTuneStrategy::kGlobal;

  /// Consecutive pairs sharing one source vertex during sample generation.
  /// Labels are index lookups, so this saves no time; it is kept because it
  /// shapes the sample distribution.
  size_t source_reuse = 8;

  /// Worker threads (0 = all cores). The label index always builds with
  /// this many workers (its bytes are identical for any count). Labelling
  /// and the SGD loop run on a pool only when num_threads > 1 — 0/1 keeps
  /// the exact sequential reference semantics.
  size_t num_threads = 0;
  /// Samples each SGD worker processes between upper-level delta merges;
  /// smaller chunks track the sequential trajectory more closely at the cost
  /// of more barriers.
  size_t sgd_chunk = 1024;
  uint64_t seed = 13;
  bool verbose = false;
};

/// Point on a learning curve: cumulative training samples processed -> mean
/// relative validation error.
struct ProgressPoint {
  size_t samples_processed = 0;
  double mean_rel_error = 0.0;
};

class Trainer {
 public:
  /// `g` and `hier` must outlive the trainer.
  Trainer(const Graph& g, const PartitionHierarchy& hier, TrainConfig config);

  /// Runs phases 1-3 (phase counts taken from the config).
  void TrainAll();

  void TrainHierarchyPhase();
  void TrainVertexPhase();
  void FineTunePhase();

  HierarchicalModel& model() { return model_; }
  const HierarchicalModel& model() const { return model_; }
  /// Distance normalization factor: model estimates * scale() = meters.
  double scale() const { return scale_; }
  size_t total_samples_processed() const { return samples_processed_; }
  /// SGD worker threads actually in use (1 = sequential).
  size_t sgd_threads() const { return sgd_threads_; }

  /// Mean relative error of the current model on exact samples
  /// (parallelized across the SGD pool for large sets).
  double MeanRelativeError(const std::vector<DistanceSample>& val) const;

  /// Installs a validation set; every epoch appends a ProgressPoint.
  void SetValidation(std::vector<DistanceSample> val);
  const std::vector<ProgressPoint>& progress() const { return progress_; }

  /// Trains `epochs` epochs on explicit samples with explicit per-level
  /// learning rates (index = model level, 1..num_levels; index 0 unused).
  /// Exposed for ablation benchmarks.
  void TrainOnSamples(const std::vector<DistanceSample>& samples,
                      const std::vector<double>& level_lrs, size_t epochs);

  /// Labels pairs with exact distances from the label index (kInfDistance
  /// for unreachable pairs, which SGD skips); parallel over the SGD pool.
  std::vector<DistanceSample> Materialize(const std::vector<VertexPair>& pairs);

  /// Seconds spent on labels so far: the index build plus every
  /// Materialize call.
  double label_seconds() const { return label_seconds_; }
  /// Bytes held by the label index while the trainer lives.
  size_t label_index_bytes() const { return labeller_->IndexBytes(); }

 private:
  /// Per-worker SGD scratch: embedding/gradient staging plus the node view
  /// for the Hogwild sharded path. Slot 0 doubles as the sequential path's
  /// scratch. Cache-line aligned: coeff_* are written on every sample and
  /// would otherwise share a line with the next slot's vector headers.
  struct alignas(64) SgdScratch {
    std::vector<float> vs, vt;
    std::vector<float> grad;    // float gradient (SIMD row updates)
    std::vector<double> dgrad;  // general-p gradient staging
    /// Dense num_nodes x dim node rows as this worker sees them: the shared
    /// rows plus its own displacement since the last merge.
    std::vector<float> node_view;
    std::vector<uint32_t> touched;    // node ids this worker moved
    std::vector<uint8_t> is_touched;  // per-node flag backing `touched`
    /// Observability accumulators (per-epoch mean |dL/d dist| gauge):
    /// two scalar ops per sample, folded across workers at epoch end.
    double coeff_abs_sum = 0.0;
    size_t coeff_count = 0;
  };

  /// One SGD update; level_lrs[level] = learning rate for that model level.
  void SgdStep(const DistanceSample& sample,
               const std::vector<double>& level_lrs);
  /// One epoch over shuffle_ sharded across the pool (num_threads > 1).
  /// `nodes_training` = some node level has a nonzero learning rate;
  /// `shuffle_slices` = each shard first reshuffles its own slice.
  void ParallelEpoch(const std::vector<DistanceSample>& samples,
                     const std::vector<double>& level_lrs, bool nodes_training,
                     bool shuffle_slices);
  /// Hogwild SGD update running on a pool worker; vertex rows in place,
  /// node rows into the worker's own scr.node_view.
  void ParallelSgdStep(const DistanceSample& sample,
                       const std::vector<double>& level_lrs, SgdScratch& scr,
                       bool nodes_training);
  /// Averages the workers' node-row displacements (view - shared) into the
  /// model (main thread, after a barrier) and resets the views to the new
  /// shared rows. Averaging — not summing — is what keeps parity with
  /// sequential SGD: every worker's local trajectory already applies a
  /// full-strength correction to the shared row, so summing W displacements
  /// would correct the same error W times over and diverge (local SGD /
  /// model averaging).
  void MergeNodeDeltas();
  /// Sets every worker's node view to the shared node rows.
  void ResetNodeViews();
  /// Global embedding gather that tolerates concurrent vertex-row writers.
  /// While nodes train it sums the worker's own node view along v's path,
  /// so each worker trains against its local model; with nodes frozen it
  /// adds v's row of leaf_rows_.
  void GlobalOfHogwild(VertexId v, std::span<float> out,
                       const SgdScratch& scr, bool nodes_training);
  /// Computes dist and the float gradient for `sample` into scr; returns
  /// false for unreachable pairs or zero error.
  bool ComputeGradient(const DistanceSample& sample, SgdScratch& scr,
                       double* coeff);
  /// Sets scale_ from the mean of `samples` if not yet set.
  void MaybeInitScale(const std::vector<DistanceSample>& samples);
  void RecordProgress();

  const Graph& g_;
  const PartitionHierarchy& hier_;
  TrainConfig config_;
  HierarchicalModel model_;
  std::unique_ptr<const H2HIndex> labeller_;
  double label_seconds_ = 0.0;
  Rng rng_;
  double scale_ = 0.0;
  /// 1 / (4 * dim): converts lr0 into a dim-independent correction fraction.
  double lr_norm_ = 1.0;
  size_t samples_processed_ = 0;

  size_t sgd_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // created only when sgd_threads_ > 1
  mutable std::vector<SgdScratch> scratch_;  // one slot per SGD worker
  /// Merge staging: per-node contributing-worker count, summed
  /// displacement rows and the union of touched nodes (parallel path only).
  std::vector<uint32_t> merge_count_;
  std::vector<float> merge_sum_;
  std::vector<uint32_t> merged_nodes_;
  /// Global embedding of every tree node (FlattenNodes), rebuilt by each
  /// parallel TrainOnSamples call that trains no node level.
  EmbeddingMatrix leaf_rows_;

  std::vector<DistanceSample> validation_;
  std::vector<ProgressPoint> progress_;

  std::vector<uint32_t> shuffle_;
};

}  // namespace rne

#endif  // RNE_CORE_TRAINER_H_
