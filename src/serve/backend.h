// Serving backends: thread-safe adapters that put the repo's servable
// distance indexes (RNE, quantized RNE, H2H, G-tree, exact Dijkstra — all
// DistanceMethod implementations) behind one concurrency-safe query
// surface, plus MakeBackend, which builds any of the five by name so the
// QueryEngine, the rne_server tool, and tests can assemble fallback chains.
// The other exact comparators (CH, ALT/LT) are benchmarked in process and
// have no serving adapter.
//
// DistanceMethod::Query is documented as not thread-safe (search methods
// reuse internal workspaces), so each adapter picks its own strategy:
//   * shared-read      — const lookups, served lock-free (RNE, quantized,
//                        H2H);
//   * pooled scratch   — a mutex-guarded free list of reusable search
//                        workspaces, one per concurrent caller (exact
//                        Dijkstra);
//   * serialized       — an internal mutex around the index (G-tree),
//                        trading parallelism for correctness.
#ifndef RNE_SERVE_BACKEND_H_
#define RNE_SERVE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/serialize.h"
#include "util/status.h"

namespace rne {
class Rne;
class RneIndex;
}

namespace rne::serve {

/// A loaded index serving point-to-point distance (and optionally kNN)
/// queries. All methods are safe to call concurrently from pool workers.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  virtual std::string Name() const = 0;
  /// True when Distance() returns exact shortest-path distances.
  virtual bool IsExact() const = 0;
  virtual size_t NumVertices() const = 0;
  /// Resident index footprint in bytes (0 for search-only backends).
  virtual size_t IndexBytes() const = 0;

  /// (Approximate) shortest-path distance s -> t; kInfDistance when
  /// unreachable. Ids must be < NumVertices().
  virtual double Distance(VertexId s, VertexId t) = 0;

  /// Whether Knn() is implemented.
  virtual bool SupportsKnn() const { return false; }
  /// k nearest vertices to s by (approximate) network distance, sorted
  /// ascending. Default: empty.
  virtual std::vector<std::pair<VertexId, double>> Knn(VertexId /*s*/,
                                                       size_t /*k*/) {
    return {};
  }

  /// The backend a run of calls should use: ids checked against the
  /// returned backend's NumVertices() stay valid for its Distance() and
  /// Knn() while the pointer is held. The default returns this backend
  /// itself (no ownership, no refcount traffic), which suits a backend
  /// that serves one index for its whole life. A backend that swaps its
  /// index returns a view of the index current at the call.
  virtual std::shared_ptr<QueryBackend> Pin() {
    return std::shared_ptr<QueryBackend>(std::shared_ptr<QueryBackend>(),
                                         this);
  }
};

/// Returns `name` as a view whose storage lives until the process exits
/// (one copy per distinct name), so answers can carry their backend's name
/// without copying a string per request.
std::string_view InternBackendName(std::string_view name);

/// Everything MakeBackend may need to materialize a backend. Pointees must
/// outlive the backend.
struct BackendContext {
  /// Road network; required by graph-built backends (dijkstra, h2h,
  /// gtree) and ignored by model-file backends.
  const Graph* graph = nullptr;
  /// Serialized model path; required by "rne" / "rne-quantized".
  std::string model_path;
  /// How model-file backends open model_path: heap (default) or zero-copy
  /// mmap.
  LoadMode load = LoadMode::kHeap;
  /// Worker count of the serving pool (parallelizes the "rne" kNN-index
  /// build).
  size_t num_workers = 1;
  uint64_t seed = 1;
};

/// Builds the built-in backend named `name` on the calling thread. NotFound
/// for unknown names; build errors (missing model file, absent graph, ...)
/// pass through.
StatusOr<std::unique_ptr<QueryBackend>> MakeBackend(const std::string& name,
                                                    const BackendContext& ctx);

/// Sorted names MakeBackend accepts: "dijkstra", "gtree", "h2h", "rne",
/// "rne-quantized".
std::vector<std::string> RegisteredBackendNames();

/// Wraps an in-process trained model the caller keeps alive (benchmarks,
/// tests); identical serving behaviour to the "rne" backend but without the
/// load-from-disk step. `model` must outlive the backend.
std::unique_ptr<QueryBackend> MakeSharedModelBackend(const Rne& model);
/// As above, also borrowing the model's kNN index instead of building one.
/// Both must outlive the backend.
std::unique_ptr<QueryBackend> MakeSharedModelBackend(const Rne& model,
                                                     const RneIndex& index);

}  // namespace rne::serve

#endif  // RNE_SERVE_BACKEND_H_
