// Concurrent batched query serving (the ROADMAP's "heavy traffic" path).
//
// A QueryEngine owns an ordered fallback chain of QueryBackends and executes
// batched distance/kNN requests. A batch runs on the calling thread unless
// it holds more than `batch_chunk` searches: its kNN requests (~7 us
// each), plus its distance requests while distance answers come from an
// exact backend (a learned answer costs tens of nanoseconds and never
// repays a thread hand-off; a Dijkstra one costs microseconds or more).
// Such a batch fans out onto a shared ThreadPool in `batch_chunk`-sized
// tasks, one TaskGroup per batch so concurrent batches never wait on each
// other. The engine enforces:
//
//  * Admission control — a bounded count of admitted-but-unfinished
//    requests; a batch that would exceed it is rejected whole with
//    Status::Unavailable (explicit backpressure instead of unbounded queue
//    growth).
//  * Per-request deadlines — measured from admission. Backends load
//    asynchronously; a request whose primary is still loading waits only
//    until its deadline, then falls back down the chain (learned backend ->
//    exact Dijkstra), and a backend that failed to load is skipped
//    immediately. A request that cannot be answered at all reports
//    DeadlineExceeded/Unavailable rather than blocking forever.
//  * Fallback on failure (DESIGN.md §12) — a dispatch that throws or hits
//    an injected fault retries down the chain while deadline budget
//    remains; a request whose deadline expired while queued fails fast
//    without touching any backend.
//  * Metrics — served/rejected/failed/fallback/retry counters plus a
//    latency histogram (p50/p95/p99 over admission-to-chunk-completion
//    nanoseconds) and QPS since start, exported as a JSON-able snapshot.
//    The same counters are the engine's METRICS source (serve.*), so STATS
//    and METRICS read one copy of each count.
//
// Bookkeeping is per chunk, not per request: a chunk resolves the chain
// once (one lock, one Pin() per ready backend, so a hot-swapped model is
// read as one generation and ids are range-checked against it), reads the
// clock once at its end, and adds its counters once.
#ifndef RNE_SERVE_QUERY_ENGINE_H_
#define RNE_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
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
  /// Max admitted-but-unfinished requests across all concurrent batches;
  /// batches beyond it are rejected with Unavailable.
  size_t queue_capacity = 4096;
  /// Searches worth one pool task. A batch with more searches than this
  /// (kNN requests, and distance requests while an exact backend answers
  /// them) fans out in chunks of this many requests; any other batch runs
  /// on the caller's thread.
  size_t batch_chunk = 32;
  /// Deadline for requests that do not carry their own (0 = none).
  std::chrono::microseconds default_deadline{0};
};

enum class RequestKind { kDistance, kKnn };

struct Request {
  RequestKind kind = RequestKind::kDistance;
  VertexId s = 0;
  VertexId t = 0;
  /// Neighbor count for kKnn.
  size_t k = 0;
  /// Per-request deadline from admission; 0 uses the engine default.
  std::chrono::microseconds deadline{0};
};

struct Response {
  Status status;
  double distance = kInfDistance;
  std::vector<std::pair<VertexId, double>> knn;
  /// Name of the backend that answered (empty on failure). The storage
  /// lives for the whole process (InternBackendName or a literal).
  std::string_view backend;
  bool exact = false;
  /// True when a non-primary backend answered (load failure, deadline or a
  /// failed dispatch).
  bool fell_back = false;
  /// True when the answer came from a ResultCache hit, not a backend call.
  bool cached = false;
};

struct MetricsSnapshot {
  uint64_t served = 0;
  uint64_t rejected = 0;   // admission-control rejections (requests)
  uint64_t failed = 0;     // per-request errors (bad ids, no backend)
  uint64_t fell_back_load = 0;      // served past a failed/absent backend
  uint64_t fell_back_deadline = 0;  // served past a still-loading backend
  // Always 0; kept because servebench/run.py and servebench/trace.cc read it.
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
  /// Joins outstanding backend loads. Callers must have finished (or must
  /// not start) QueryBatch calls.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Appends a backend to the fallback chain (first added = primary) and
  /// starts loading it on a dedicated thread; queries arriving before the
  /// load finishes wait up to their deadline. `ctx.num_workers` is
  /// overwritten with the pool's worker count.
  void AddBackend(const std::string& name, BackendContext ctx);
  /// Appends an already-constructed backend, immediately ready (tests,
  /// in-process indexes).
  void AddReadyBackend(std::unique_ptr<QueryBackend> backend);

  /// Blocks until every added backend finished loading; returns the first
  /// load error (the engine still serves via the rest of the chain).
  Status WaitUntilLoaded();

  /// Executes `requests` as one batch: admits all-or-nothing (Unavailable
  /// on queue-full) and returns once every response is filled. The batch
  /// runs on the calling thread unless it holds more than `batch_chunk`
  /// searches (kNN requests, and distance requests while the last chunk
  /// that answered distances answered one from an exact backend); then it
  /// fans out onto the pool in `batch_chunk`-sized chunks and the caller
  /// blocks until they finish. `out` is resized to requests.size() and its
  /// Response objects are reused; per-request failures land in
  /// Response::status, not the return value.
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
  enum class SlotState { kLoading, kReady, kFailed };

  struct BackendSlot {
    std::string name;
    /// Fault-injection point "serve.backend.<name>", built once here rather
    /// than per request (it is past the small-string buffer).
    std::string fault_point;
    SlotState state = SlotState::kLoading;
    std::unique_ptr<QueryBackend> backend;
    /// InternBackendName(backend->Name()), set when the slot turns kReady:
    /// the name answers carry.
    std::string_view answer_name;
    Status load_status;
    /// Registry histogram "serve.backend.<name>.latency_ns" (backend-call
    /// time only, excluding queue wait). Resolved once at AddBackend.
    obs::LatencyStat* latency = nullptr;
  };

  /// A chain slot as one chunk sees it. A chunk resolves the whole chain
  /// once and walks these without the chain lock; only a slot still
  /// loading sends a request back to the lock (AwaitSlot).
  struct SlotView {
    /// Stable: slots are never removed, and a slot that left kLoading
    /// never changes again.
    const BackendSlot* slot = nullptr;
    SlotState state = SlotState::kLoading;
    /// slot->backend->Pin() while kReady, held for the rest of the chunk.
    std::shared_ptr<QueryBackend> backend;
    size_t num_vertices = 0;
    bool exact = false;
    bool supports_knn = false;
  };

  using Clock = std::chrono::steady_clock;

  std::unique_ptr<BackendSlot> MakeSlot(const std::string& name);

  void ExecuteChunk(std::span<const Request> requests,
                    std::span<Response> out, Clock::time_point admitted,
                    Clock::time_point deadline_default);
  /// Flags accumulated while walking the chain for one request.
  struct FallbackFlags {
    bool any = false;       // a non-primary consideration happened
    bool deadline = false;  // skipped a still-loading backend at deadline
    bool load = false;      // skipped a failed-to-load backend
  };
  /// Snapshots every slot into `chain` (one chain lock) and pins the ready
  /// ones.
  void ResolveChain(std::vector<SlotView>* chain) RNE_EXCLUDES(chain_mu_);
  /// Waits, until `deadline`, for a slot `view` saw loading; refreshes the
  /// view (pinning the backend if it became ready).
  void AwaitSlot(Clock::time_point deadline, SlotView* view)
      RNE_EXCLUDES(chain_mu_);
  /// Fills `view` from its slot's current state; a ready slot is pinned.
  static void FillView(SlotState state, SlotView* view);
  /// Picks the first servable slot at index >= `start` per the fallback
  /// policy, waiting on loading slots until `deadline`. Returns nullptr
  /// when no backend can serve; `*index` receives the chosen slot's
  /// position so retries resume after it.
  SlotView* ChooseBackend(std::span<SlotView> chain, RequestKind kind,
                          Clock::time_point deadline, size_t start,
                          FallbackFlags* flags, size_t* index);
  /// True while any slot is still kLoading.
  bool AnyBackendLoading() const RNE_REQUIRES(chain_mu_);
  /// The engine's METRICS source: its counters and latency histogram under
  /// their serve.* names.
  void CollectMetrics(obs::MetricsSample* out) const;

  const EngineOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  const Clock::time_point start_;

  mutable Mutex chain_mu_;
  CondVar chain_changed_;
  std::vector<std::unique_ptr<BackendSlot>> chain_ RNE_GUARDED_BY(chain_mu_);
  std::vector<std::thread> loaders_ RNE_GUARDED_BY(chain_mu_);

  /// Admission-to-chunk-completion latency, one weighted sample per chunk
  /// (sharded, so concurrent chunks rarely share a lock).
  obs::LatencyStat latency_;
  /// Counters are registry-style atomics (TSan-clean, no lock on the update
  /// path); MetricsSnapshot stays a thin view over their Value()s. They are
  /// engine-owned, not registry entries, because tests run several engines
  /// per process and assert exact per-engine counts; METRICS reads them
  /// through metrics_source_.
  obs::Counter served_;
  obs::Counter rejected_;
  obs::Counter failed_;
  obs::Counter fell_back_load_;
  obs::Counter fell_back_deadline_;
  obs::Counter retries_;
  obs::Counter fast_fails_;

  Mutex admission_mu_;
  size_t outstanding_ RNE_GUARDED_BY(admission_mu_) = 0;

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
