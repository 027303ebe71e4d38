// Sharded LRU cache for distance / kNN query results — the "hot
// origin/destination pairs never touch a backend" layer in front of the
// QueryEngine (DESIGN.md §13).
//
// Road-network query streams are heavily skewed, so a small cache absorbs
// most of the offered load when a miss is a search; on a uniform stream it
// almost only misses, so a miss must cost tens of nanoseconds, not a heap
// round trip. Design:
//
//   * Shards — a power-of-two number of independent exact-LRU tables, each
//     behind its own annotated rne::Mutex; a key's shard is picked from its
//     hash, so concurrent serving threads contend only when they hit the
//     same shard.
//   * Flat slots — each shard reserves its slot array at construction
//     (capacity x slot bytes) and constructs a slot only when an insert
//     needs a new one, so a server that never inserts keeps no slot pages
//     resident. Recency is an intrusive doubly linked list of uint32_t slot
//     ids; keys are found through an open-addressed uint32_t index (linear
//     probing, backward-shift deletion, load <= 0.5), allocated and filled
//     at construction. Storing a distance allocates nothing; a kNN list
//     lives in the slot's vector, whose capacity is reused when the slot is
//     overwritten.
//   * Batches — LookupBatch / InsertBatch hash every key once and take each
//     shard's lock once per batch, handling that shard's requests in batch
//     order, so the result equals one-at-a-time calls. Lookup and Insert
//     are one-element batches.
//   * Key — (generation, kind, s, t|k). `generation` is a cache-wide
//     atomic bumped by Invalidate(): after a ModelManager hot swap every
//     pre-swap entry becomes unreachable, so a RELOAD can never serve a
//     stale distance. The batch re-checks it under each shard lock, and
//     Invalidate() also resets every shard's index and list.
//   * Values — the answer exactly as the engine produced it (distance or
//     kNN list, answering backend, exactness), so a cache hit is
//     bit-identical to the uncached answer (pinned by the differential
//     harness).
//   * Metrics — hits, misses, insertions, evictions and size are plain
//     integers in each shard, under its lock; Stats() sums them, and
//     METRICS reads that sum under "serve.cache.*" (the cache is a metrics
//     source).
//
// CachedEngine composes a ResultCache in front of a QueryEngine and caches
// only answers that cost a search: kNN lists (~7 us) and distances from an
// exact backend (Dijkstra ~290 us). A learned distance is one L1 kernel
// (~70 ns), cheaper than the lookup and insert that would save it, so it
// bypasses the cache. Hits are answered locally, the rest go to the engine
// as one (smaller) batch, and OK non-fallback answers worth caching are
// inserted on the way out. Fallback answers are never cached: during a
// primary brownout they would pin the fallback's answers past recovery.
#ifndef RNE_SERVE_RESULT_CACHE_H_
#define RNE_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/query_engine.h"

namespace rne::serve {

struct ResultCacheOptions {
  /// Total entries across all shards (split evenly; at least 1 per shard).
  size_t capacity = 1 << 16;
  /// Rounded up to the next power of two; clamped to at least 1.
  size_t num_shards = 16;
};

/// Point-in-time counters; `hit_rate` is hits / (hits + misses). Under
/// CachedEngine, hits and misses count looked-up requests only.
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
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks up every request under one generation. Sets out[i].cached to
  /// whether request i hit; a hit also fills out[i] with the cached answer
  /// (status OK, fell_back false) and refreshes the entry's LRU
  /// position, while a miss leaves the rest of out[i] untouched. Returns
  /// the number of hits. `out` has one element per request. Thread-safe.
  size_t LookupBatch(std::span<const Request> requests,
                     std::span<Response> out);

  /// Stores responses[i] for requests[i], computed under cache generation
  /// `generation` (read before the engine call that produced them),
  /// evicting the least-recently-used entry of the key's shard at
  /// capacity. Answers whose generation was retired by Invalidate()
  /// meanwhile are dropped: they may come from the pre-swap model. Failed
  /// and fallback responses are never stored: a brownout would otherwise
  /// pin the fallback's answers until they age out, long after the primary
  /// recovered. Re-inserting a present key refreshes its LRU
  /// position and keeps the stored value. Thread-safe.
  void InsertBatch(std::span<const Request> requests,
                   std::span<const Response> responses, uint64_t generation);

  /// One-element LookupBatch: true on a hit.
  bool Lookup(const Request& request, Response* out) {
    return LookupBatch({&request, 1}, {out, 1}) == 1;
  }

  /// One-element InsertBatch.
  void Insert(const Request& request, const Response& response,
              uint64_t generation) {
    InsertBatch({&request, 1}, {&response, 1}, generation);
  }

  /// Wholesale invalidation: bumps the generation (pre-bump keys can no
  /// longer match) and resets every shard's index and recency list. Called
  /// on ModelManager hot swap. Thread-safe.
  void Invalidate();

  CacheStats Stats() const;

  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  size_t num_shards() const { return shards_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  struct Shard;  // result_cache.cc

  /// The cache's METRICS source: Stats() under its serve.cache.* names.
  void CollectMetrics(obs::MetricsSample* out) const;

  const size_t capacity_;
  /// Built in the initialiser list and never resized: metrics_source_ reads
  /// it from any thread.
  const std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> generation_{0};
  obs::Counter invalidations_;

  /// Declared last (see obs::MetricsSource).
  obs::MetricsSource metrics_source_{
      [this](obs::MetricsSample* out) { CollectMetrics(out); }};
};

/// A QueryEngine fronted by an optional ResultCache. With a null cache it
/// is a passthrough. With one, it looks up kNN requests always, and
/// distance requests only while QueryEngine::distances_exact() says an
/// exact backend answers them; a batch with nothing to look up goes
/// straight to the engine. Hits are answered without touching the engine,
/// the rest are forwarded as one batch, and OK answers that are exact or
/// kNN lists are inserted on return (decided from each answer, so a cold
/// exact chain's first batch is kept) under the generation read before the
/// lookups, so a batch that straddles an Invalidate() cannot cache a
/// pre-swap answer. Learned distance answers are never looked up or
/// inserted: they cost less than the lookup.
class CachedEngine {
 public:
  /// Neither pointee is owned; both must outlive this object. `cache` may
  /// be null (passthrough).
  CachedEngine(QueryEngine* engine, ResultCache* cache)
      : engine_(engine), cache_(cache) {}

  /// As QueryEngine::QueryBatch: always OK, failures are per response.
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
