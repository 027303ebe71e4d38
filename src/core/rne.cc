#include "core/rne.h"

#include <queue>
#include <utility>

#include "core/kernels.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rne {

Rne Rne::Build(const Graph& g, const RneConfig& config, RneBuildStats* stats) {
  RNE_CHECK(g.NumVertices() >= 2);
  Timer total;

  HierarchyOptions hopt = config.hierarchy;
  if (!config.hierarchical) {
    // Degenerate one-node tree: the flat RNE-Naive model.
    hopt.leaf_threshold = g.NumVertices();
    hopt.max_levels = 1;
  }
  Timer partition_timer;
  std::shared_ptr<PartitionHierarchy> hierarchy;
  {
    RNE_SPAN("build.partition");
    hierarchy = std::make_shared<PartitionHierarchy>(
        PartitionHierarchy::Build(g, hopt));
  }
  const double partition_seconds = partition_timer.ElapsedSeconds();

  TrainConfig tcfg = config.train;
  tcfg.dim = config.dim;
  tcfg.p = config.p;
  if (!config.fine_tune) tcfg.finetune_rounds = 0;

  Timer train_timer;
  Trainer trainer(g, *hierarchy, tcfg);
  double phase_seconds[3] = {0.0, 0.0, 0.0};
  size_t phase_samples[3] = {0, 0, 0};
  size_t samples_before = 0;
  const auto run_phase = [&](int phase, auto&& fn) {
    Timer phase_timer;
    fn();
    phase_seconds[phase] = phase_timer.ElapsedSeconds();
    phase_samples[phase] = trainer.total_samples_processed() - samples_before;
    samples_before = trainer.total_samples_processed();
  };
  if (config.hierarchical) {
    run_phase(0, [&] { trainer.TrainHierarchyPhase(); });
  }
  run_phase(1, [&] { trainer.TrainVertexPhase(); });
  run_phase(2, [&] { trainer.FineTunePhase(); });
  const double train_seconds = train_timer.ElapsedSeconds();

  Rne model;
  model.hierarchy_ = std::move(hierarchy);
  model.vertex_emb_ = trainer.model().FlattenVertices();
  model.node_emb_ = trainer.model().FlattenNodes();
  model.p_ = config.p;
  model.scale_ = trainer.scale();
  model.build_threads_ = static_cast<uint32_t>(
      ResolveNumThreads(hopt.partition.num_threads));
  model.build_seconds_ = total.ElapsedSeconds();

  if (stats != nullptr) {
    stats->partition_seconds = partition_seconds;
    stats->train_seconds = train_seconds;
    stats->total_seconds = total.ElapsedSeconds();
    stats->samples_processed = trainer.total_samples_processed();
    stats->num_tree_nodes = model.hierarchy_->num_nodes();
    for (int i = 0; i < 3; ++i) {
      stats->phase_seconds[i] = phase_seconds[i];
      stats->phase_samples[i] = phase_samples[i];
    }
    stats->train_threads = trainer.sgd_threads();
    stats->label_seconds = trainer.label_seconds();
    stats->label_index_bytes = trainer.label_index_bytes();
  }
  return model;
}

void Rne::QueryOneToMany(VertexId s, std::span<const VertexId> targets,
                         std::span<double> out) const {
  RNE_CHECK(out.size() == targets.size());
  const auto src = vertex_emb_.Row(s);
  for (size_t i = 0; i < targets.size(); ++i) {
    out[i] = MetricDist(src, vertex_emb_.Row(targets[i]), p_) * scale_;
  }
}

std::vector<std::pair<VertexId, double>> Rne::QueryKnn(
    VertexId s, std::span<const VertexId> targets, size_t k) const {
  std::vector<double> dist(targets.size());
  QueryOneToMany(s, targets, dist);
  // Max-heap of the k best seen so far.
  std::priority_queue<std::pair<double, VertexId>> best;
  for (size_t i = 0; i < targets.size(); ++i) {
    if (best.size() < k) {
      best.emplace(dist[i], targets[i]);
    } else if (!best.empty() && dist[i] < best.top().first) {
      best.pop();
      best.emplace(dist[i], targets[i]);
    }
  }
  std::vector<std::pair<VertexId, double>> out(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    out[i] = {best.top().second, best.top().first};
    best.pop();
  }
  return out;
}

void Rne::RefineOnline(const std::vector<DistanceSample>& samples,
                       size_t epochs, double lr0, uint64_t seed) {
  RNE_CHECK_MSG(vertex_emb_.owns_storage(),
                "RefineOnline requires a heap-loaded model (mmap views are "
                "read-only)");
  if (samples.empty()) return;
  Rng rng(seed);
  const size_t dim = vertex_emb_.dim();
  const double lr_norm = 1.0 / (4.0 * static_cast<double>(dim));
  std::vector<double> grad(dim);
  std::vector<float> fgrad(dim);
  std::vector<uint32_t> order(samples.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(order);
    const double lr =
        lr0 * (epochs <= 1 ? 1.0
                           : 1.0 - 0.9 * static_cast<double>(epoch) /
                                       static_cast<double>(epochs - 1));
    for (const uint32_t idx : order) {
      const DistanceSample& sample = samples[idx];
      if (sample.dist == kInfDistance) continue;
      auto vs = vertex_emb_.Row(sample.s);
      auto vt = vertex_emb_.Row(sample.t);
      double dist;
      if (p_ == 1.0) {
        dist = L1DistWithSignGrad(vs, vt, fgrad);
      } else {
        dist = MetricDist(vs, vt, p_);
      }
      const double err = dist - sample.dist / scale_;
      if (err == 0.0) continue;
      const double coeff = 2.0 * err * lr * lr_norm;
      if (p_ != 1.0) {
        MetricGradient(vs, vt, p_, dist, grad);
        for (size_t d = 0; d < dim; ++d) {
          fgrad[d] = static_cast<float>(grad[d]);
        }
      }
      const float alpha = static_cast<float>(coeff);
      AxpyKernel(vs, fgrad, -alpha);
      AxpyKernel(vt, fgrad, alpha);
    }
  }
}

Status Rne::Save(const std::string& path) const {
  BinaryWriter w(path, kRneMagic);
  if (!w.ok()) return Status::IoError("cannot open " + path + ".tmp");
  // The matrices live in aligned sections so an mmap load can serve rows
  // zero-copy.
  w.AddSection(kSecRneVertexEmb, vertex_emb_.raw(), vertex_emb_.MemoryBytes());
  w.AddSection(kSecRneNodeEmb, node_emb_.raw(), node_emb_.MemoryBytes());
  w.WritePod(p_);
  w.WritePod(scale_);
  vertex_emb_.WriteMeta(w);
  node_emb_.WriteMeta(w);
  hierarchy_->WriteTo(w);
  // Optional build-provenance trailer; readers that predate it stop here.
  w.WritePod(build_threads_);
  w.WritePod(build_seconds_);
  return w.Finish();
}

Status Rne::ParseMeta(BinaryReader& r, const std::string& path,
                      std::shared_ptr<PartitionHierarchy>* hierarchy) {
  *hierarchy = std::make_shared<PartitionHierarchy>();
  if (!r.ReadPod(&p_) || !r.ReadPod(&scale_)) {
    return r.ReadError("corrupt RNE model file " + path);
  }
  // An absent section means zero bytes (the writer drops empty sections);
  // ReadMeta cross-checks rows*dim against the extent either way, so a
  // missing section with a non-empty matrix still fails as corrupt.
  const SectionInfo* vsec = r.FindSection(kSecRneVertexEmb);
  const SectionInfo* nsec = r.FindSection(kSecRneNodeEmb);
  if (!vertex_emb_.ReadMeta(r, vsec == nullptr ? 0 : vsec->size) ||
      !node_emb_.ReadMeta(r, nsec == nullptr ? 0 : nsec->size) ||
      !PartitionHierarchy::ReadFrom(r, hierarchy->get())) {
    return r.ReadError("corrupt RNE model file " + path);
  }
  // Build-provenance trailer, absent in files written before it existed.
  if (r.remaining() >= sizeof(build_threads_) + sizeof(build_seconds_)) {
    if (!r.ReadPod(&build_threads_) || !r.ReadPod(&build_seconds_)) {
      return r.ReadError("corrupt RNE model file " + path);
    }
  }
  return Status::Ok();
}

Status Rne::CheckConsistent(const std::string& path) const {
  if (vertex_emb_.rows() != hierarchy_->num_vertices() ||
      node_emb_.rows() != hierarchy_->num_nodes()) {
    return Status::Corruption("inconsistent RNE model file " + path);
  }
  return Status::Ok();
}

StatusOr<Rne> Rne::Load(const std::string& path, LoadMode mode) {
  if (mode == LoadMode::kMmap) return LoadMapped(path);
  BinaryReader r(path, kRneMagic);
  if (!r.ok()) return r.status();
  Rne model;
  std::shared_ptr<PartitionHierarchy> hierarchy;
  RNE_RETURN_IF_ERROR(model.ParseMeta(r, path, &hierarchy));
  RNE_RETURN_IF_ERROR(r.Finish());
  float* vertices = model.vertex_emb_.AllocateOwned(model.vertex_emb_.rows(),
                                                    model.vertex_emb_.dim());
  if (model.vertex_emb_.MemoryBytes() > 0) {
    RNE_RETURN_IF_ERROR(r.ReadSectionInto(kSecRneVertexEmb, vertices,
                                          model.vertex_emb_.MemoryBytes()));
  }
  float* nodes = model.node_emb_.AllocateOwned(model.node_emb_.rows(),
                                               model.node_emb_.dim());
  if (model.node_emb_.MemoryBytes() > 0) {
    RNE_RETURN_IF_ERROR(r.ReadSectionInto(kSecRneNodeEmb, nodes,
                                          model.node_emb_.MemoryBytes()));
  }
  model.hierarchy_ = std::move(hierarchy);
  RNE_RETURN_IF_ERROR(model.CheckConsistent(path));
  return model;
}

StatusOr<Rne> Rne::LoadMapped(const std::string& path) {
  auto opened = MappedEnvelope::Open(path, kRneMagic);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<const MappedEnvelope> env = std::move(opened).value();
  BinaryReader r(env->file().data(), env->file().size(), path, kRneMagic);
  if (!r.ok()) return r.status();
  Rne model;
  std::shared_ptr<PartitionHierarchy> hierarchy;
  RNE_RETURN_IF_ERROR(model.ParseMeta(r, path, &hierarchy));
  RNE_RETURN_IF_ERROR(r.Finish());
  model.vertex_emb_ = EmbeddingMatrix::View(
      reinterpret_cast<const float*>(env->SectionData(kSecRneVertexEmb)),
      model.vertex_emb_.rows(), model.vertex_emb_.dim());
  model.node_emb_ = EmbeddingMatrix::View(
      reinterpret_cast<const float*>(env->SectionData(kSecRneNodeEmb)),
      model.node_emb_.rows(), model.node_emb_.dim());
  model.mapping_ = std::move(env);
  model.hierarchy_ = std::move(hierarchy);
  RNE_RETURN_IF_ERROR(model.CheckConsistent(path));
  return model;
}

}  // namespace rne
