#include "serve/model_manager.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace rne::serve {
namespace {

/// Serves the manager's currently published snapshot. Each call acquires
/// the snapshot once and uses it consistently (model + index from the same
/// generation); Pin() hands out that snapshot's backend so a caller can
/// range-check ids and query against the same generation.
class ManagedRneBackend : public QueryBackend {
 public:
  explicit ManagedRneBackend(const ModelManager* manager)
      : manager_(manager) {}

  std::string Name() const override { return "rne"; }
  bool IsExact() const override { return false; }
  size_t NumVertices() const override {
    const auto snapshot = manager_->Current();
    return snapshot == nullptr ? 0 : snapshot->model->NumVertices();
  }
  size_t IndexBytes() const override {
    const auto snapshot = manager_->Current();
    return snapshot == nullptr ? 0 : snapshot->model->IndexBytes();
  }
  double Distance(VertexId s, VertexId t) override {
    return PublishedOrThrow()->Distance(s, t);
  }
  bool SupportsKnn() const override { return true; }
  std::vector<std::pair<VertexId, double>> Knn(VertexId s,
                                               size_t k) override {
    return PublishedOrThrow()->Knn(s, k);
  }
  /// Before the first publish this is the manager-wide backend itself, so
  /// NumVertices() reads 0 and a dispatch throws.
  std::shared_ptr<QueryBackend> Pin() override {
    auto published = Published();
    return published != nullptr ? published : QueryBackend::Pin();
  }

 private:
  /// The published snapshot's backend, sharing the snapshot's ownership;
  /// null before the first publish.
  std::shared_ptr<QueryBackend> Published() const {
    auto snapshot = manager_->Current();
    if (snapshot == nullptr) return nullptr;
    QueryBackend* backend = snapshot->backend.get();
    return std::shared_ptr<QueryBackend>(std::move(snapshot), backend);
  }
  std::shared_ptr<QueryBackend> PublishedOrThrow() const {
    auto published = Published();
    if (published == nullptr) {
      // The engine treats a throwing backend as a per-request failure and
      // retries down the chain — exactly the wanted behaviour while no
      // model has been published yet.
      throw std::runtime_error("no model published yet");
    }
    return published;
  }

  const ModelManager* manager_;
};

}  // namespace

StatusOr<EnvelopeInfo> VerifyIndexFile(const std::string& path,
                                       uint32_t expected_magic) {
  auto info = InspectEnvelope(path);
  if (!info.ok()) return info.status();
  const uint32_t magic = info.value().index_magic;
  if (magic != kRneMagic && magic != kQuantMagic) {
    char hex[16];
    std::snprintf(hex, sizeof(hex), "0x%08x", magic);
    return Status::InvalidArgument(path + ": index kind " + hex +
                                   " is not a model kind this build reads");
  }
  if (expected_magic != 0 && magic != expected_magic) {
    return Status::InvalidArgument(
        path + ": index kind is " + IndexKindName(magic) + ", expected " +
        IndexKindName(expected_magic));
  }
  return info;
}

ModelManager::ModelManager() : ModelManager(Options()) {}

ModelManager::ModelManager(const Options& options) : options_(options) {}

Status ModelManager::Load(const std::string& path) {
  MutexLock lock(&load_mu_);
  last_path_ = path;
  // Stage 1: structural verify (envelope fields + checksums) — the same
  // check `rne_tool verify` runs — before paying the full deserialize.
  const auto info = VerifyIndexFile(path, kRneMagic);
  if (!info.ok()) {
    RNE_COUNTER_ADD("serve.swap.rejected", 1);
    return info.status();
  }
  // Stage 2: full typed load (payload structural validation lives in
  // Rne::Load) plus compatibility gate against the published generation.
  auto model = Rne::Load(path, options_.load);
  if (!model.ok()) {
    RNE_COUNTER_ADD("serve.swap.rejected", 1);
    return model.status();
  }
  const auto previous = Current();
  if (options_.require_same_vertex_count && previous != nullptr &&
      model.value().NumVertices() != previous->model->NumVertices()) {
    RNE_COUNTER_ADD("serve.swap.rejected", 1);
    return Status::FailedPrecondition(
        path + ": replacement has " +
        std::to_string(model.value().NumVertices()) +
        " vertices, published model has " +
        std::to_string(previous->model->NumVertices()));
  }
  // Stage 3: materialize the snapshot (kNN index build is the expensive
  // part) while the old generation keeps serving.
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->model =
      std::make_shared<const Rne>(std::move(model).value());
  snapshot->index = std::make_shared<const RneIndex>(snapshot->model.get(),
                                                     options_.num_workers);
  snapshot->backend =
      MakeSharedModelBackend(*snapshot->model, *snapshot->index);
  snapshot->version = next_version_++;
  snapshot->path = path;
  // Stage 4: publish. Readers that already hold the previous shared_ptr
  // finish on it; the old generation is freed when the last in-flight
  // query drops its reference, or by `retired` after the lock is released
  // when no query holds it, so readers never wait on that free.
  std::shared_ptr<const Snapshot> retired;
  {
    MutexLock lock(&current_mu_);
    retired = std::exchange(current_, std::move(snapshot));
  }
  RNE_COUNTER_ADD("serve.swap.success", 1);
  RNE_GAUGE_SET("serve.model.version", static_cast<double>(next_version_ - 1));
  return Status::Ok();
}

Status ModelManager::Reload() {
  std::string path;
  {
    MutexLock lock(&load_mu_);
    path = last_path_;
  }
  if (path.empty()) {
    return Status::FailedPrecondition(
        "no model path on record; RELOAD needs an explicit path first");
  }
  return Load(path);
}

uint64_t ModelManager::version() const {
  const auto snapshot = Current();
  return snapshot == nullptr ? 0 : snapshot->version;
}

std::unique_ptr<QueryBackend> ModelManager::MakeManagedBackend() const {
  return std::make_unique<ManagedRneBackend>(this);
}

}  // namespace rne::serve
