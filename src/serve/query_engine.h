// Concurrent batched query serving (the ROADMAP's "heavy traffic" path).
//
// A QueryEngine owns an ordered fallback chain of QueryBackends and executes
// batched distance/kNN requests. The chain is fixed at setup: AddBackend
// builds its backend on the calling thread, so a batch only ever sees
// slots that are ready or that failed to load. A batch runs on the calling
// thread unless it holds more than `batch_chunk` searches: its kNN
// requests (~7 us each), plus its distance requests while distance answers
// come from an exact backend (a learned answer costs tens of nanoseconds
// and never repays a thread hand-off; a Dijkstra one costs microseconds or
// more). Such a batch fans out by claiming: the caller and up to one helper
// task per pool worker take kClaimBlock-request blocks off one atomic
// counter until the batch runs out. The caller takes the first block
// before any helper is submitted, so it always searches, and no thread
// waits on a worker that wakes late. Each batch has its own TaskGroup, so
// concurrent batches never wait on each other. QueryBatch is synchronous,
// so each caller has at most one batch in flight: callers x batch size
// bounds the work the engine holds. The engine enforces one failure
// policy:
//
//  * Fallback on failure (DESIGN.md §12) — a backend that failed to load is
//    skipped, and a dispatch that throws or hits an injected fault retries
//    down the chain (learned backend -> exact Dijkstra).
//  * An engine-wide deadline (`default_deadline`), measured from the start
//    of QueryBatch — a request that no thread reaches before it passes
//    fails fast without touching any backend, and retries down the chain
//    stop once it passed.
//  * Metrics — served/failed/fallback/retry counters plus a latency
//    histogram (p50/p95/p99 over batch-start-to-block-completion
//    nanoseconds) and QPS since start, exported as a JSON-able snapshot.
//    The same counters are the engine's METRICS source (serve.*), so STATS
//    and METRICS read one copy of each count.
//
// Bookkeeping is per chunk, not per request (a chunk is a whole inline
// batch or one claimed block): it resolves the chain once (one lock, one
// Pin() per ready backend, so a hot-swapped model is read as one
// generation and ids are range-checked against it), reads the clock once
// at its end, and adds its counters once.
#ifndef RNE_SERVE_QUERY_ENGINE_H_
#define RNE_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "serve/backend.h"
#include "util/annotations.h"
#include "util/thread_pool.h"

namespace rne::serve {

struct EngineOptions {
  /// Workers for an engine-owned pool when none is shared in (0 = hardware
  /// concurrency).
  size_t num_threads = 0;
  /// Searches worth a fan-out. A batch with more searches than this (kNN
  /// requests, and distance requests while an exact backend answers them)
  /// fans out in kClaimBlock-request blocks; any other batch runs on the
  /// caller's thread.
  size_t batch_chunk = 32;
  /// Deadline of every request, measured from the start of its QueryBatch
  /// call (0 = none). A request that no thread reaches before it passes
  /// fails fast with DeadlineExceeded; a failed dispatch retries down the
  /// chain only while it has not passed.
  std::chrono::microseconds default_deadline{0};
};

enum class RequestKind { kDistance, kKnn };

struct Request {
  RequestKind kind = RequestKind::kDistance;
  VertexId s = 0;
  VertexId t = 0;
  /// Neighbor count for kKnn.
  size_t k = 0;
};

struct Response {
  Status status;
  double distance = kInfDistance;
  std::vector<std::pair<VertexId, double>> knn;
  /// Name of the backend that answered (empty on failure). The storage
  /// lives for the whole process (InternBackendName or a literal).
  std::string_view backend;
  bool exact = false;
  /// True when a non-primary backend answered (load failure or a failed
  /// dispatch).
  bool fell_back = false;
  /// True when the answer came from a ResultCache hit, not a backend call.
  bool cached = false;
};

struct MetricsSnapshot {
  uint64_t served = 0;
  uint64_t failed = 0;  // per-request errors (bad ids, no backend)
  uint64_t fell_back_load = 0;  // served past a backend that failed to load
  // Always 0; kept because servebench/run.py and servebench/trace.cc read
  // them.
  uint64_t rejected = 0;
  uint64_t fell_back_deadline = 0;
  uint64_t fell_back_breaker = 0;
  uint64_t retries = 0;     // failed attempts retried down the chain
  uint64_t fast_fails = 0;  // deadline expired while queued; not dispatched
  double qps = 0.0;        // served / uptime
  double uptime_seconds = 0.0;
  double p50_ns = 0.0, p95_ns = 0.0, p99_ns = 0.0;
  double mean_ns = 0.0;
  int64_t max_ns = 0;

  std::string ToJson() const;
};

class QueryEngine {
 public:
  /// Uses `pool` when given (not owned; must outlive the engine), otherwise
  /// creates a private pool with options.num_threads workers.
  explicit QueryEngine(const EngineOptions& options = {},
                       ThreadPool* pool = nullptr);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Builds backend `name` on the calling thread and appends it to the
  /// fallback chain (first added = primary). A backend that fails to build
  /// joins the chain as a failed slot, which every request skips.
  /// `ctx.num_workers` is overwritten with the pool's worker count.
  void AddBackend(const std::string& name, BackendContext ctx);
  /// Appends an already-constructed backend (tests, in-process indexes,
  /// ModelManager's managed backend).
  void AddReadyBackend(std::unique_ptr<QueryBackend> backend);

  /// The load error of the first failed slot, or OK. Does not wait:
  /// AddBackend has finished every load before it returns. The engine still
  /// serves via the rest of the chain.
  Status WaitUntilLoaded();

  /// Requests per claimed block of a fanned batch, chosen on knn_rne's
  /// 64-request `KNN s 10` batches with 2 workers (4-vCPU VM; EXPERIMENTS.md
  /// "Serving — callers search their own kNN batch"): 4 and 8 tied in
  /// BM_EngineKnnBatch, 8 read 1.03x of 4 in servebench qps, and 16 and 32
  /// were slower. Smaller blocks leave a shorter tail for the caller to
  /// wait on; larger ones pay the per-chunk bookkeeping less often.
  static constexpr size_t kClaimBlock = 8;

  /// Executes `requests` as one batch and returns once every response is
  /// filled. The batch runs on the calling thread unless it holds more than
  /// `batch_chunk` searches (kNN requests, and distance requests while the
  /// last chunk that answered distances answered one from an exact
  /// backend); then the caller and up to one pool helper per worker claim
  /// kClaimBlock-request blocks until none is left, and the caller returns
  /// once the helpers' blocks are done too. `out` is resized to
  /// requests.size() and its Response objects are reused; per-request
  /// failures land in Response::status. Always returns OK (the Status
  /// return is kept for callers that test it).
  Status QueryBatch(std::span<const Request> requests,
                    std::vector<Response>* out);

  /// Convenience single-request wrapper.
  Response Query(const Request& request);

  MetricsSnapshot Metrics() const;

  /// Whether the last chunk that answered distance requests answered any
  /// of them from an exact backend (false until one has). A cache in front
  /// of the engine uses it to decide which distance requests to look up.
  bool distances_exact() const {
    return exact_distances_.load(std::memory_order_relaxed);
  }

  ThreadPool& pool() { return *pool_; }
  size_t num_backends() const;

 private:
  struct BackendSlot {
    std::string name;
    /// Fault-injection point "serve.backend.<name>", built once here rather
    /// than per request (it is past the small-string buffer).
    std::string fault_point;
    /// Null when the backend failed to load (load_status says why).
    std::unique_ptr<QueryBackend> backend;
    /// InternBackendName(backend->Name()): the name answers carry.
    std::string_view answer_name;
    Status load_status;
    /// Registry histogram "serve.backend.<name>.latency_ns" (backend-call
    /// time only, excluding queue wait). Resolved once at AddBackend.
    obs::LatencyStat* latency = nullptr;
  };

  /// A chain slot as one chunk sees it. A chunk resolves the whole chain
  /// once and walks these without the chain lock.
  struct SlotView {
    /// Stable: slots are never removed or changed once in the chain.
    const BackendSlot* slot = nullptr;
    /// slot->backend->Pin(), held for the rest of the chunk; null for a
    /// slot that failed to load.
    std::shared_ptr<QueryBackend> backend;
    size_t num_vertices = 0;
    bool exact = false;
    bool supports_knn = false;
  };

  using Clock = std::chrono::steady_clock;

  std::unique_ptr<BackendSlot> MakeSlot(const std::string& name);

  void ExecuteChunk(std::span<const Request> requests,
                    std::span<Response> out, Clock::time_point started,
                    Clock::time_point deadline);
  /// Snapshots every slot into `chain` (one chain lock) and pins the ready
  /// ones.
  void ResolveChain(std::vector<SlotView>* chain) RNE_EXCLUDES(chain_mu_);
  /// Picks the first slot at index >= `start` that loaded and can serve
  /// `kind`, setting `*skipped_failed` when it passed a slot that failed to
  /// load. Returns nullptr when no backend can serve; `*index` receives the
  /// chosen slot's position so retries resume after it.
  static SlotView* ChooseBackend(std::span<SlotView> chain, RequestKind kind,
                                 size_t start, bool* skipped_failed,
                                 size_t* index);
  /// The engine's METRICS source: its counters and latency histogram under
  /// their serve.* names.
  void CollectMetrics(obs::MetricsSample* out) const;

  const EngineOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  const Clock::time_point start_;

  /// Guards the chain against an Add* racing a batch.
  mutable Mutex chain_mu_;
  std::vector<std::unique_ptr<BackendSlot>> chain_ RNE_GUARDED_BY(chain_mu_);

  /// Batch-start-to-chunk-completion latency (a fanned batch's chunks are
  /// its blocks), one weighted sample per chunk
  /// (sharded, so concurrent chunks rarely share a lock).
  obs::LatencyStat latency_;
  /// Counters are registry-style atomics (TSan-clean, no lock on the update
  /// path); MetricsSnapshot stays a thin view over their Value()s. They are
  /// engine-owned, not registry entries, because tests run several engines
  /// per process and assert exact per-engine counts; METRICS reads them
  /// through metrics_source_.
  obs::Counter served_;
  obs::Counter failed_;
  obs::Counter fell_back_load_;
  obs::Counter retries_;
  obs::Counter fast_fails_;

  /// Whether the last chunk that answered distance requests answered any
  /// of them from an exact backend. Such an answer is a search (us to ms),
  /// so while this holds a distance batch larger than one chunk fans out;
  /// a learned answer (tens of ns) never repays the hand-off. Starts false:
  /// the first batch runs inline whatever the chain.
  std::atomic<bool> exact_distances_{false};

  /// Declared last (see obs::MetricsSource).
  obs::MetricsSource metrics_source_{
      [this](obs::MetricsSample* out) { CollectMetrics(out); }};
};

}  // namespace rne::serve

#endif  // RNE_SERVE_QUERY_ENGINE_H_
