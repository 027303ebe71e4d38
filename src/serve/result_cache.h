// Sharded LRU cache for distance / kNN query results — the "hot
// origin/destination pairs never touch a backend" layer in front of the
// QueryEngine (DESIGN.md §13).
//
// Road-network query streams are heavily skewed, so a small cache absorbs
// most of the offered load. Design:
//
//   * Shards — a power-of-two number of independent LRU maps, each behind
//     its own annotated rne::Mutex; a key's shard is picked from its hash,
//     so concurrent serving threads contend only when they hit the same
//     shard.
//   * Key — (generation, kind, s, t|k). `generation` is a cache-wide
//     atomic bumped by Invalidate(): after a ModelManager hot swap every
//     pre-swap entry becomes unreachable in O(1), so a RELOAD can never
//     serve a stale distance. Invalidate() also eagerly clears the shards
//     to release memory.
//   * Values — the answer exactly as the engine produced it (distance or
//     kNN list, answering backend, exactness), so a cache hit is
//     bit-identical to the uncached answer (pinned by the differential
//     harness).
//   * Metrics — hit/miss/insert/evict/invalidation counters plus an
//     occupancy gauge, mirrored into the global registry under
//     "serve.cache.*".
//
// CachedEngine composes a ResultCache in front of a QueryEngine: hits are
// answered locally, misses go to the engine as one (smaller) batch, and OK
// non-fallback responses are inserted on the way out. Fallback answers are
// not cached by default: during a primary brownout they would pin the
// fallback's answers past recovery.
#ifndef RNE_SERVE_RESULT_CACHE_H_
#define RNE_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "util/annotations.h"

namespace rne::serve {

struct ResultCacheOptions {
  /// Total entries across all shards (split evenly; at least 1 per shard).
  size_t capacity = 1 << 16;
  /// Rounded up to the next power of two; clamped to at least 1.
  size_t num_shards = 16;
  /// Cache responses that were served by a fallback backend. Off by
  /// default: a brownout would otherwise pin the fallback's answers until
  /// they age out, long after the primary recovered.
  bool cache_fallback = false;
};

/// Point-in-time counters; `hit_rate` is hits / (hits + misses).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t generation = 0;
  size_t entries = 0;
  size_t capacity = 0;
  size_t shards = 0;
  double hit_rate = 0.0;

  std::string ToJson() const;
};

class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// On hit, fills `*out` with the cached answer (status OK, cached=true)
  /// and refreshes the entry's LRU position. Thread-safe.
  bool Lookup(const Request& request, Response* out);

  /// Stores an OK response computed under cache generation `generation`
  /// (read before the engine call that produced it), evicting the
  /// least-recently-used entry of the key's shard at capacity. An answer
  /// whose generation was retired by Invalidate() meanwhile is dropped: it
  /// may come from the pre-swap model. Failed responses are never stored;
  /// fallback responses only when options.cache_fallback. Thread-safe.
  void Insert(const Request& request, const Response& response,
              uint64_t generation);

  /// O(1) wholesale invalidation: bumps the generation (pre-bump keys can
  /// no longer match) and eagerly clears every shard. Called on ModelManager
  /// hot swap. Thread-safe.
  void Invalidate();

  CacheStats Stats() const;

  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  size_t num_shards() const { return shards_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  struct Key {
    uint64_t generation = 0;
    uint32_t kind = 0;  // RequestKind as int
    VertexId s = 0;
    uint64_t tk = 0;  // t for distance, k for kNN

    bool operator==(const Key& other) const = default;
  };

  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  /// The cached slice of a Response (everything deterministic about the
  /// answer; latency and fallback flags are per-serving-moment).
  struct Value {
    double distance = 0.0;
    std::vector<std::pair<VertexId, double>> knn;
    std::string backend;
    bool exact = false;
  };

  using LruList = std::list<std::pair<Key, Value>>;

  struct alignas(64) Shard {
    mutable Mutex mu;
    /// Front = most recently used.
    LruList lru RNE_GUARDED_BY(mu);
    std::unordered_map<Key, LruList::iterator, KeyHash> map
        RNE_GUARDED_BY(mu);
  };

  static Key MakeKey(const Request& request, uint64_t generation);
  Shard& ShardFor(const Key& key);

  size_t capacity_ = 0;
  size_t per_shard_capacity_ = 0;
  const bool cache_fallback_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> generation_{0};

  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter insertions_;
  obs::Counter evictions_;
  obs::Counter invalidations_;
  std::atomic<int64_t> entries_{0};
};

/// A QueryEngine fronted by an optional ResultCache. With a null cache it
/// is a passthrough. With one, hits are answered without touching the
/// engine, misses are forwarded as one batch, and OK responses are
/// inserted on return under the generation read before the lookups, so a
/// batch that straddles an Invalidate() cannot cache a pre-swap answer.
///
/// Unlike QueryEngine::QueryBatch's all-or-nothing admission, a batch that
/// contains hits is never rejected whole: if the engine rejects the
/// miss sub-batch, the hits still answer and only the misses carry the
/// rejection status (per-response), with the call returning OK. A batch
/// with no hits keeps the engine's semantics (the rejection is returned).
class CachedEngine {
 public:
  /// Neither pointee is owned; both must outlive this object. `cache` may
  /// be null (passthrough).
  CachedEngine(QueryEngine* engine, ResultCache* cache)
      : engine_(engine), cache_(cache) {}

  Status QueryBatch(std::span<const Request> requests,
                    std::vector<Response>* out);

  ResultCache* cache() const { return cache_; }
  QueryEngine& engine() const { return *engine_; }

 private:
  QueryEngine* engine_;
  ResultCache* cache_;
};

}  // namespace rne::serve

#endif  // RNE_SERVE_RESULT_CACHE_H_
