// Hot model swap for the serving path (the swap primitive the ROADMAP's
// dynamic-edge-weights item reuses): a ModelManager owns the published RNE
// model + its kNN index as one immutable snapshot behind a mutex-guarded
// shared_ptr. Load() verifies and materializes a replacement entirely off
// the serving path — envelope/structural verify (the same check as
// `rne_tool verify`), full typed deserialize, kNN index build — and only
// then publishes with a single pointer swap under that short lock (the
// retired snapshot is released outside it). In-flight queries
// keep the snapshot they started with, so a swap never fails a query; a
// corrupt or mismatched replacement is rejected and the previous snapshot
// keeps serving (rollback is the default because publish is the last step).
//
// The `RELOAD` verb in serve/server_loop.h is a thin wrapper over Load(),
// and the place a swap invalidates the serving ResultCache: a caller that
// calls Load() directly and keeps a cache must invalidate it too.
#ifndef RNE_SERVE_MODEL_MANAGER_H_
#define RNE_SERVE_MODEL_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/rne.h"
#include "core/rne_index.h"
#include "serve/backend.h"
#include "util/annotations.h"
#include "util/serialize.h"
#include "util/status.h"

namespace rne::serve {

/// Structural verification shared with `rne_tool verify`: envelope header
/// fields, file size, header and payload checksums — without deserializing.
/// The index kind must be an RNE or quantized RNE model (any other kind,
/// retired ones included, is InvalidArgument); when `expected_magic` is
/// nonzero it must match that kind too.
StatusOr<EnvelopeInfo> VerifyIndexFile(const std::string& path,
                                       uint32_t expected_magic = 0);

class ModelManager {
 public:
  struct Options {
    /// Parallelizes the kNN index build of a freshly loaded model.
    size_t num_workers = 1;
    /// Reject a replacement whose vertex count differs from the published
    /// model (ids in flight would silently change meaning).
    bool require_same_vertex_count = true;
    /// How Load() opens model files (heap or mmap).
    LoadMode load = LoadMode::kHeap;
  };

  ModelManager();
  explicit ModelManager(const Options& options);

  /// Verifies, loads, and publishes the model at `path`. Synchronous, but
  /// runs entirely off the serving threads: queries keep reading the old
  /// snapshot until the final publish. On any failure the previous
  /// snapshot (if any) keeps serving unchanged.
  Status Load(const std::string& path);

  /// Re-runs Load() on the most recently attempted path (RELOAD with no
  /// argument). FailedPrecondition when nothing was ever loaded.
  Status Reload();

  /// One published model generation. Immutable; index points into model.
  struct Snapshot {
    std::shared_ptr<const Rne> model;
    std::shared_ptr<const RneIndex> index;
    /// Serves exactly this generation's model and index; what the managed
    /// backend's Pin() hands out, kept alive by the snapshot.
    std::unique_ptr<QueryBackend> backend;
    uint64_t version = 0;
    std::string path;
  };

  /// Acquires the current snapshot (one shared_ptr copy under a short
  /// lock); null before the first successful Load().
  std::shared_ptr<const Snapshot> Current() const RNE_EXCLUDES(current_mu_) {
    MutexLock lock(&current_mu_);
    return current_;
  }

  /// Version of the published snapshot (0 = none).
  uint64_t version() const;

  /// Backend adapter serving whatever snapshot is published at each call;
  /// its Pin() returns the published snapshot's backend, so a run of calls
  /// through the pin sees one generation (and one vertex count). The
  /// manager must outlive the returned backend. A backend created before
  /// the first successful Load() throws from Distance()/Knn() — the engine
  /// converts that to a failure and falls down the chain.
  std::unique_ptr<QueryBackend> MakeManagedBackend() const;

 private:
  const Options options_;

  /// Guards only the pointer: readers copy it, Load() swaps it. A plain
  /// mutex rather than std::atomic<std::shared_ptr>, whose libstdc++
  /// implementation ThreadSanitizer cannot see through.
  mutable Mutex current_mu_;
  std::shared_ptr<const Snapshot> current_ RNE_GUARDED_BY(current_mu_);

  /// Serializes concurrent Load()s (last successful publisher wins is not a
  /// useful semantic for operators; one reload at a time is).
  mutable Mutex load_mu_;
  uint64_t next_version_ RNE_GUARDED_BY(load_mu_) = 1;
  std::string last_path_ RNE_GUARDED_BY(load_mu_);
};

}  // namespace rne::serve

#endif  // RNE_SERVE_MODEL_MANAGER_H_
