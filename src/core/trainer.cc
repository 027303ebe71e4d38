#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "algo/landmarks.h"
#include "core/kernels.h"
#include "core/metric.h"
#include "obs/trace.h"
#include "util/timer.h"

// Detect ThreadSanitizer builds: the Hogwild vertex-row path switches to
// relaxed atomics there (plain movs on x86, so semantics match the release
// build's benign races) so TSan runs are genuinely race-free.
#if defined(__SANITIZE_THREAD__)
#define RNE_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RNE_TSAN_BUILD 1
#endif
#endif

namespace rne {

namespace {
/// Caps per-sample error in normalized units; protects the embedding from
/// rare outlier pairs early in training.
constexpr double kErrorClip = 10.0;

/// Smallest pair set Materialize labels on the SGD pool.
constexpr size_t kParallelLabelMinPairs = 1024;

/// row[i] += alpha * g[i] on a row that other workers may be updating
/// concurrently (Hogwild). Lost updates are SGD noise; see trainer.h.
void HogwildAxpy(std::span<float> row, std::span<const float> g,
                 float alpha) {
#if defined(RNE_TSAN_BUILD)
  for (size_t i = 0; i < row.size(); ++i) {
    std::atomic_ref<float> cell(row[i]);
    cell.store(cell.load(std::memory_order_relaxed) + alpha * g[i],
               std::memory_order_relaxed);
  }
#else
  AxpyKernel(row, g, alpha);
#endif
}

/// out = row, tolerating concurrent HogwildAxpy writers on `row`.
void HogwildCopy(std::span<float> row, std::span<float> out) {
#if defined(RNE_TSAN_BUILD)
  for (size_t i = 0; i < row.size(); ++i) {
    std::atomic_ref<float> cell(row[i]);
    out[i] = cell.load(std::memory_order_relaxed);
  }
#else
  std::copy(row.begin(), row.end(), out.begin());
#endif
}
}  // namespace

Trainer::Trainer(const Graph& g, const PartitionHierarchy& hier,
                 TrainConfig config)
    : g_(g),
      hier_(hier),
      config_(config),
      model_(&hier, config.dim, config.p),
      rng_(config.seed) {
  RNE_CHECK(hier.num_vertices() == g.NumVertices());
  {
    RNE_SPAN("train.label_index");
    const Timer timer;
    H2HOptions options;
    options.num_threads = config_.num_threads;
    labeller_ = std::make_unique<const H2HIndex>(g_, options);
    label_seconds_ = timer.ElapsedSeconds();
  }
  // Init spread ~ init_scale / dim keeps the initial L1 estimate O(1) in
  // normalized units for every dimension choice.
  model_.RandomInit(rng_,
                    config_.init_scale / static_cast<double>(config_.dim));
  // An SGD step moves all `dim` coordinates of both endpoints, changing the
  // L1 estimate by ~4 * dim * lr * err; dividing by 4 * dim makes lr0 the
  // fraction of the error corrected per update, independent of dim.
  lr_norm_ = 1.0 / (4.0 * static_cast<double>(config_.dim));

  sgd_threads_ = config_.num_threads > 1 ? config_.num_threads : 1;
  if (sgd_threads_ > 1) pool_ = std::make_unique<ThreadPool>(sgd_threads_);
  scratch_.resize(sgd_threads_);
  for (SgdScratch& scr : scratch_) {
    scr.vs.resize(config_.dim);
    scr.vt.resize(config_.dim);
    scr.grad.resize(config_.dim);
    scr.dgrad.resize(config_.dim);
    if (pool_) {
      scr.node_view.assign(hier_.num_nodes() * config_.dim, 0.0f);
      scr.is_touched.assign(hier_.num_nodes(), 0);
    }
  }
  if (pool_) {
    merge_count_.assign(hier_.num_nodes(), 0);
    merge_sum_.assign(hier_.num_nodes() * config_.dim, 0.0f);
  }
}

void Trainer::MaybeInitScale(const std::vector<DistanceSample>& samples) {
  if (scale_ != 0.0) return;
  double sum = 0.0;
  size_t count = 0;
  for (const DistanceSample& s : samples) {
    if (s.dist > 0.0 && s.dist != kInfDistance) {
      sum += s.dist;
      ++count;
    }
  }
  RNE_CHECK_MSG(count > 0, "no finite training distances to derive scale");
  scale_ = sum / static_cast<double>(count);
}

std::vector<DistanceSample> Trainer::Materialize(
    const std::vector<VertexPair>& pairs) {
  RNE_SPAN("train.materialize");
  const Timer timer;
  std::vector<DistanceSample> out(pairs.size());
  const auto label = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto [s, t] = pairs[i];
      out[i] = {s, t, labeller_->Distance(s, t)};
    }
  };
  // A label costs well under a microsecond, so only sets big enough to
  // amortize the pool hand-off fan out.
  if (pool_ && pairs.size() >= kParallelLabelMinPairs) {
    const size_t workers = sgd_threads_;
    const size_t per = (pairs.size() + workers - 1) / workers;
    pool_->ParallelFor(workers, [&](size_t w) {
      const size_t begin = std::min(pairs.size(), w * per);
      label(begin, std::min(pairs.size(), begin + per));
    });
  } else {
    label(0, pairs.size());
  }
  label_seconds_ += timer.ElapsedSeconds();
  return out;
}

bool Trainer::ComputeGradient(const DistanceSample& sample, SgdScratch& scr,
                              double* coeff) {
  double dist;
  if (config_.p == 1.0) {
    // Fused kernel: distance and sign gradient in one memory sweep.
    dist = L1DistWithSignGrad(scr.vs, scr.vt, scr.grad);
  } else {
    dist = MetricDist(scr.vs, scr.vt, config_.p);
  }
  const double target = sample.dist / scale_;
  const double err = std::clamp(dist - target, -kErrorClip, kErrorClip);
  if (err == 0.0) return false;
  if (config_.p != 1.0) {
    MetricGradient(scr.vs, scr.vt, config_.p, dist, scr.dgrad);
    for (size_t i = 0; i < scr.grad.size(); ++i) {
      scr.grad[i] = static_cast<float>(scr.dgrad[i]);
    }
  }
  *coeff = 2.0 * err * lr_norm_;  // dL/d(dist), dim-normalized
  scr.coeff_abs_sum += std::abs(err);
  ++scr.coeff_count;
  return true;
}

void Trainer::SgdStep(const DistanceSample& sample,
                      const std::vector<double>& level_lrs) {
  if (sample.dist == kInfDistance) return;  // unreachable pair
  SgdScratch& scr = scratch_[0];
  model_.GlobalOf(sample.s, scr.vs);
  model_.GlobalOf(sample.t, scr.vt);
  double coeff;
  if (!ComputeGradient(sample, scr, &coeff)) return;

  const uint32_t vertex_level = model_.vertex_level();
  // Source side: d(dist)/d(v_s) = grad.
  for (const uint32_t node : hier_.AncestorsOf(sample.s)) {
    const double lr = level_lrs[hier_.node(node).level];
    if (lr == 0.0) continue;
    AxpyKernel(model_.NodeLocal(node), scr.grad,
               -static_cast<float>(lr * coeff));
  }
  if (level_lrs[vertex_level] != 0.0) {
    AxpyKernel(model_.VertexLocal(sample.s), scr.grad,
               -static_cast<float>(level_lrs[vertex_level] * coeff));
  }
  // Target side: d(dist)/d(v_t) = -grad.
  for (const uint32_t node : hier_.AncestorsOf(sample.t)) {
    const double lr = level_lrs[hier_.node(node).level];
    if (lr == 0.0) continue;
    AxpyKernel(model_.NodeLocal(node), scr.grad,
               static_cast<float>(lr * coeff));
  }
  if (level_lrs[vertex_level] != 0.0) {
    AxpyKernel(model_.VertexLocal(sample.t), scr.grad,
               static_cast<float>(level_lrs[vertex_level] * coeff));
  }
}

void Trainer::GlobalOfHogwild(VertexId v, std::span<float> out,
                              const SgdScratch& scr, bool nodes_training) {
  HogwildCopy(model_.VertexLocal(v), out);
  if (!nodes_training) {
    // Frozen node rows: their sum along v's path is v's leaf row.
    AxpyKernel(out, leaf_rows_.Row(hier_.LeafOf(v)), 1.0f);
    return;
  }
  // The worker's own node view: shared rows plus its pending displacement,
  // so it sees its earlier node updates at once (sequential-style
  // telescoping) although they reach the shared model only at the next
  // barrier.
  const size_t dim = config_.dim;
  for (const uint32_t node : hier_.AncestorsOf(v)) {
    AxpyKernel(out,
               std::span<const float>(scr.node_view.data() + node * dim, dim),
               1.0f);
  }
}

void Trainer::ParallelSgdStep(const DistanceSample& sample,
                              const std::vector<double>& level_lrs,
                              SgdScratch& scr, bool nodes_training) {
  if (sample.dist == kInfDistance) return;
  GlobalOfHogwild(sample.s, scr.vs, scr, nodes_training);
  GlobalOfHogwild(sample.t, scr.vt, scr, nodes_training);
  double coeff;
  if (!ComputeGradient(sample, scr, &coeff)) return;

  if (nodes_training) {
    const size_t dim = config_.dim;
    const auto update_node = [&](uint32_t node, float alpha) {
      if (!scr.is_touched[node]) {
        scr.is_touched[node] = 1;
        scr.touched.push_back(node);
      }
      AxpyKernel({scr.node_view.data() + node * dim, dim}, scr.grad, alpha);
    };
    for (const uint32_t node : hier_.AncestorsOf(sample.s)) {
      const double lr = level_lrs[hier_.node(node).level];
      if (lr != 0.0) update_node(node, -static_cast<float>(lr * coeff));
    }
    for (const uint32_t node : hier_.AncestorsOf(sample.t)) {
      const double lr = level_lrs[hier_.node(node).level];
      if (lr != 0.0) update_node(node, static_cast<float>(lr * coeff));
    }
  }
  const uint32_t vertex_level = model_.vertex_level();
  if (level_lrs[vertex_level] != 0.0) {
    const float alpha = static_cast<float>(level_lrs[vertex_level] * coeff);
    HogwildAxpy(model_.VertexLocal(sample.s), scr.grad, -alpha);
    HogwildAxpy(model_.VertexLocal(sample.t), scr.grad, alpha);
  }
}

void Trainer::MergeNodeDeltas() {
  const size_t dim = config_.dim;
  // Sum each touched node's displacement (view - shared) over the workers
  // that moved it this round.
  for (SgdScratch& scr : scratch_) {
    for (const uint32_t node : scr.touched) {
      float* sum = merge_sum_.data() + node * dim;
      if (merge_count_[node]++ == 0) {
        merged_nodes_.push_back(node);
        std::fill(sum, sum + dim, 0.0f);
      }
      const float* view = scr.node_view.data() + node * dim;
      const std::span<const float> shared = model_.NodeLocal(node);
      for (size_t i = 0; i < dim; ++i) sum[i] += view[i] - shared[i];
      scr.is_touched[node] = 0;
    }
    scr.touched.clear();
  }
  // Fold the AVERAGE displacement into the shared row (see the header
  // comment for why summing would diverge) and reset every worker's view
  // of the row to it.
  for (const uint32_t node : merged_nodes_) {
    const std::span<float> shared = model_.NodeLocal(node);
    AxpyKernel(shared, {merge_sum_.data() + node * dim, dim},
               1.0f / static_cast<float>(merge_count_[node]));
    merge_count_[node] = 0;
    for (SgdScratch& scr : scratch_) {
      std::copy(shared.begin(), shared.end(),
                scr.node_view.begin() + static_cast<long>(node * dim));
    }
  }
  merged_nodes_.clear();
}

void Trainer::ResetNodeViews() {
  const size_t dim = config_.dim;
  for (uint32_t node = 0; node < hier_.num_nodes(); ++node) {
    const std::span<const float> shared = model_.NodeLocal(node);
    for (SgdScratch& scr : scratch_) {
      std::copy(shared.begin(), shared.end(),
                scr.node_view.begin() + static_cast<long>(node * dim));
    }
  }
}

void Trainer::ParallelEpoch(const std::vector<DistanceSample>& samples,
                            const std::vector<double>& level_lrs,
                            bool nodes_training, bool shuffle_slices) {
  const size_t workers = sgd_threads_;
  const size_t n = shuffle_.size();
  const size_t per = (n + workers - 1) / workers;
  // Shard w trains slice [w * per, (w + 1) * per) of shuffle_. While node
  // levels train, each round covers up to `sgd_chunk` samples per shard and
  // ends at a barrier where the main thread merges the node displacements;
  // with the node rows frozen there is nothing to merge, so the epoch is
  // one round.
  const size_t round =
      nodes_training ? std::max<size_t>(1, config_.sgd_chunk) : per;
  std::vector<Rng> slice_rngs;
  if (shuffle_slices) {
    for (size_t w = 0; w < workers; ++w) slice_rngs.push_back(rng_.Fork());
  }
  for (size_t offset = 0; offset < per; offset += round) {
    pool_->ParallelFor(workers, [&](size_t w) {
      const size_t begin = std::min(n, w * per);
      const size_t end = std::min(n, begin + per);
      if (shuffle_slices && offset == 0) {
        slice_rngs[w].Shuffle(
            std::span<uint32_t>(shuffle_).subspan(begin, end - begin));
      }
      // Scratch is per pool-worker thread (two shards that land on the same
      // worker run sequentially and may share a slot).
      SgdScratch& scr = scratch_[ThreadPool::CurrentWorkerIndex()];
      const size_t stop = std::min(end, begin + offset + round);
      for (size_t k = begin + offset; k < stop; ++k) {
        ParallelSgdStep(samples[shuffle_[k]], level_lrs, scr, nodes_training);
      }
    });
    if (nodes_training) MergeNodeDeltas();
  }
}

void Trainer::TrainOnSamples(const std::vector<DistanceSample>& samples,
                             const std::vector<double>& level_lrs,
                             size_t epochs) {
  RNE_CHECK(level_lrs.size() == model_.num_levels() + 1);
  if (samples.empty()) return;
  MaybeInitScale(samples);
  shuffle_.resize(samples.size());
  std::iota(shuffle_.begin(), shuffle_.end(), 0);
  const bool parallel = pool_ && samples.size() >= sgd_threads_ * 2;
  bool nodes_training = false;
  for (uint32_t l = 1; l < model_.vertex_level(); ++l) {
    nodes_training |= level_lrs[l] != 0.0;
  }
  // Both are rebuilt on every call because the node rows may have moved
  // since the last one (node training, or the initial RandomInit). Frozen:
  // the rows cannot change during the call, so the gather reads their
  // per-leaf sums. Training: each worker starts from the shared rows.
  if (parallel && !nodes_training) leaf_rows_ = model_.FlattenNodes();
  if (parallel && nodes_training) ResetNodeViews();
  std::vector<double> lrs = level_lrs;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    const Timer epoch_timer;
    // The parallel path shuffles the whole order once per call; later
    // epochs reshuffle each shard's slice on its worker (ParallelEpoch).
    if (!parallel || epoch == 0) rng_.Shuffle(shuffle_);
    // Linear decay to lr_final_fraction anneals the SGD noise floor at the
    // tail of each phase.
    const double decay =
        epochs <= 1
            ? 1.0
            : 1.0 - (1.0 - config_.lr_final_fraction) *
                        static_cast<double>(epoch) /
                        static_cast<double>(epochs - 1);
    for (size_t l = 0; l < lrs.size(); ++l) lrs[l] = level_lrs[l] * decay;
    if (parallel) {
      ParallelEpoch(samples, lrs, nodes_training, epoch > 0);
    } else {
      for (const uint32_t idx : shuffle_) {
        SgdStep(samples[idx], lrs);
      }
    }
    samples_processed_ += samples.size();
    if (obs::Enabled()) {
      const double secs = epoch_timer.ElapsedSeconds();
      RNE_GAUGE_SET("train.samples_per_sec",
                    secs > 0.0 ? static_cast<double>(samples.size()) / secs
                               : 0.0);
      RNE_COUNTER_ADD("train.samples_processed", samples.size());
      // Mean clipped |dist error| per SGD update this epoch — the
      // dim-normalized gradient magnitude (grad coeff = 2 * err / (4 dim)).
      double err_sum = 0.0;
      size_t err_count = 0;
      for (SgdScratch& scr : scratch_) {
        err_sum += scr.coeff_abs_sum;
        err_count += scr.coeff_count;
        scr.coeff_abs_sum = 0.0;
        scr.coeff_count = 0;
      }
      if (err_count > 0) {
        RNE_GAUGE_SET("train.grad_err_mean",
                      err_sum / static_cast<double>(err_count));
      }
    }
    RecordProgress();
  }
}

void Trainer::TrainHierarchyPhase() {
  RNE_SPAN("train.phase1");
  const uint32_t num_levels = model_.num_levels();
  for (uint32_t lev = 1; lev <= num_levels; ++lev) {
    // One span per hierarchy level (a level trains thousands of samples);
    // this is the ring's documented granularity, not a per-element span.
    RNE_SPAN("train.phase1.level", lev);  // rne-lint: allow(obs-hot-loop)
    // Sub-graph level samples for the focused level; the vertex level uses
    // leaf partitions (the deepest sub-graph granularity).
    const uint32_t sample_level = std::min(lev, hier_.max_level());
    const std::vector<VertexPair> pairs =
        SubgraphLevelPairs(hier_, sample_level, config_.level_samples, rng_,
                           config_.source_reuse);
    const std::vector<DistanceSample> samples = Materialize(pairs);

    std::vector<double> lrs(num_levels + 1, 0.0);
    for (uint32_t l = 1; l <= num_levels; ++l) {
      lrs[l] = config_.lr0 /
               (std::abs(static_cast<int>(l) - static_cast<int>(lev)) + 1.0);
    }
    TrainOnSamples(samples, lrs, config_.level_epochs);
    if (config_.verbose) {
      std::printf("[trainer] phase1 step %u/%u done (%zu samples)\n", lev,
                  num_levels, samples.size());
      std::fflush(stdout);
    }
  }
}

void Trainer::TrainVertexPhase() {
  RNE_SPAN("train.phase2");
  std::vector<VertexPair> pairs;
  if (config_.landmark_sampling) {
    const std::vector<VertexId> landmarks =
        config_.farthest_landmarks
            ? SelectLandmarksFarthest(g_, config_.num_landmarks, rng_)
            : SelectLandmarksRandom(g_, config_.num_landmarks, rng_);
    pairs = LandmarkPairs(landmarks, g_.NumVertices(), config_.vertex_samples,
                          rng_);
  } else {
    pairs = RandomVertexPairs(g_.NumVertices(), config_.vertex_samples, rng_,
                              config_.source_reuse);
  }
  const std::vector<DistanceSample> samples = Materialize(pairs);

  std::vector<double> lrs(model_.num_levels() + 1, 0.0);
  lrs[model_.vertex_level()] = config_.lr0;
  TrainOnSamples(samples, lrs, config_.vertex_epochs);
  if (config_.verbose) {
    std::printf("[trainer] phase2 done (%zu samples)\n", samples.size());
    std::fflush(stdout);
  }
}

void Trainer::FineTunePhase() {
  if (config_.finetune_rounds == 0) return;
  RNE_SPAN("train.phase3");
  const SpatialGrid grid(g_, config_.grid_k);
  std::vector<double> lrs(model_.num_levels() + 1, 0.0);
  lrs[model_.vertex_level()] = config_.lr0 * 0.5;

  for (size_t round = 0; round < config_.finetune_rounds; ++round) {
    // Per-round, not per-element: a fine-tune round spans full bucket
    // evaluation plus an entire training pass.
    RNE_SPAN("train.phase3.round", round);  // rne-lint: allow(obs-hot-loop)
    // Estimate the error-vs-distance distribution of the current model.
    std::vector<double> bucket_errors(grid.num_buckets(), 0.0);
    {
      // Covers the whole eval sweep for the round (one span per round).
      RNE_SPAN("train.phase3.eval", round);  // rne-lint: allow(obs-hot-loop)
      for (size_t b = 0; b < grid.num_buckets(); ++b) {
        if (!grid.BucketNonEmpty(b)) continue;
        std::vector<VertexPair> eval_pairs;
        eval_pairs.reserve(config_.finetune_eval_pairs_per_bucket);
        while (eval_pairs.size() < config_.finetune_eval_pairs_per_bucket) {
          VertexId s, t;
          if (!grid.SamplePair(b, rng_, &s, &t)) break;
          // Source reuse: several targets from the drawn cell share one
          // search.
          const auto& cell = grid.CellVertices(grid.CellOf(t));
          for (size_t r = 0; r < config_.source_reuse &&
                             eval_pairs.size() <
                                 config_.finetune_eval_pairs_per_bucket;
               ++r) {
            const VertexId tt =
                r == 0 ? t : cell[rng_.UniformIndex(cell.size())];
            if (s != tt) eval_pairs.emplace_back(s, tt);
          }
        }
        if (eval_pairs.empty()) continue;
        const auto eval = Materialize(eval_pairs);
        bucket_errors[b] = MeanRelativeError(eval);
      }
    }
    if (!bucket_errors.empty()) {
      RNE_GAUGE_SET("train.finetune.max_bucket_error",
                    *std::max_element(bucket_errors.begin(),
                                      bucket_errors.end()));
    }

    const std::vector<VertexPair> pairs =
        ErrorBasedPairs(grid, bucket_errors, config_.finetune_strategy,
                        config_.finetune_samples, rng_, config_.source_reuse);
    RNE_GAUGE_SET("train.finetune.refill_pairs", pairs.size());
    // An empty round (e.g. every bucket already converged) must not abort
    // the remaining rounds: later rounds re-measure and may find new work.
    if (pairs.empty()) continue;
    const std::vector<DistanceSample> samples = Materialize(pairs);
    TrainOnSamples(samples, lrs, config_.finetune_epochs);
    if (config_.verbose) {
      std::printf("[trainer] phase3 round %zu done (%zu samples)\n", round + 1,
                  samples.size());
      std::fflush(stdout);
    }
  }
}

void Trainer::TrainAll() {
  TrainHierarchyPhase();
  TrainVertexPhase();
  FineTunePhase();
}

double Trainer::MeanRelativeError(
    const std::vector<DistanceSample>& val) const {
  const auto eval_range = [this](const DistanceSample* begin,
                                 const DistanceSample* end, SgdScratch& scr,
                                 double* sum_out, size_t* count_out) {
    double sum = 0.0;
    size_t count = 0;
    for (const DistanceSample* s = begin; s != end; ++s) {
      if (s->dist <= 0.0 || s->dist == kInfDistance) continue;
      model_.GlobalOf(s->s, scr.vs);
      model_.GlobalOf(s->t, scr.vt);
      const double est = MetricDist(scr.vs, scr.vt, config_.p) * scale_;
      sum += std::abs(est - s->dist) / s->dist;
      ++count;
    }
    *sum_out = sum;
    *count_out = count;
  };

  // Runs every epoch on the full validation set (RecordProgress), so large
  // sets fan out across the SGD pool.
  if (pool_ && val.size() >= 512) {
    const size_t workers = sgd_threads_;
    const size_t per = (val.size() + workers - 1) / workers;
    std::vector<double> sums(workers, 0.0);
    std::vector<size_t> counts(workers, 0);
    pool_->ParallelFor(workers, [&](size_t w) {
      const size_t begin = std::min(val.size(), w * per);
      const size_t end = std::min(val.size(), begin + per);
      eval_range(val.data() + begin, val.data() + end,
                 scratch_[ThreadPool::CurrentWorkerIndex()], &sums[w],
                 &counts[w]);
    });
    const double sum = std::accumulate(sums.begin(), sums.end(), 0.0);
    const size_t count = std::accumulate(counts.begin(), counts.end(),
                                         static_cast<size_t>(0));
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  double sum = 0.0;
  size_t count = 0;
  eval_range(val.data(), val.data() + val.size(), scratch_[0], &sum, &count);
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

void Trainer::SetValidation(std::vector<DistanceSample> val) {
  validation_ = std::move(val);
}

void Trainer::RecordProgress() {
  if (validation_.empty()) return;
  progress_.push_back({samples_processed_, MeanRelativeError(validation_)});
}

}  // namespace rne
