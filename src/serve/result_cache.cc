#include "serve/result_cache.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "util/annotations.h"

namespace rne::serve {
namespace {

/// splitmix64 finalizer — a fast, well-mixed stateless hash (the same
/// construction util/fault_injection.cc uses for seeding).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Empty index cell, and the end of a recency list.
constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

struct Key {
  uint64_t generation = 0;
  uint32_t kind = 0;  // RequestKind as int
  VertexId s = 0;
  uint64_t tk = 0;  // t for distance, k for kNN

  bool operator==(const Key& other) const = default;
};

Key MakeKey(const Request& request, uint64_t generation) {
  Key key;
  key.generation = generation;
  key.kind = static_cast<uint32_t>(request.kind);
  key.s = request.s;
  key.tk = request.kind == RequestKind::kDistance
               ? static_cast<uint64_t>(request.t)
               : static_cast<uint64_t>(request.k);
  return key;
}

/// The low bits pick the shard, the high 32 the home cell in its index.
uint64_t HashKey(const Key& key) {
  const uint64_t h =
      Mix64(key.generation ^ (static_cast<uint64_t>(key.kind) << 62));
  return Mix64(h ^ (static_cast<uint64_t>(key.s) << 32) ^ key.tk);
}

uint32_t HighHash(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

/// One cached answer plus its key and links: the cached slice of a
/// Response (everything deterministic about the answer; latency and
/// fallback flags are per-serving-moment).
struct Slot {
  Key key;
  double distance = 0.0;
  std::vector<std::pair<VertexId, double>> knn;
  std::string_view backend;  // process-lifetime storage, as in Response
  uint32_t prev = kNone;  // toward the most recently used
  uint32_t next = kNone;  // toward the least recently used
  uint32_t hash_hi = 0;   // HighHash(key): home cell, re-probe on delete
  bool exact = false;
};
// With the shard's index (8-16 bytes per entry at load <= 0.5), an entry
// stays within 104 bytes.
static_assert(sizeof(Slot) <= 88);

/// Scratch for one batch: each request's hash, and the request indices
/// grouped by shard (batch order within a shard). Thread-local, so a warm
/// thread allocates nothing per batch.
struct BatchPlan {
  std::vector<uint64_t> hash;
  std::vector<size_t> order;
  std::vector<size_t> begin;  // shard i's run is order[begin[i], begin[i+1])
};

bool Storable(const Response& response) {
  return response.status.ok() && !response.fell_back;
}

}  // namespace

struct alignas(64) ResultCache::Shard {
  /// Reserves the slot array without constructing it, so its pages are
  /// touched only as entries are inserted.
  explicit Shard(size_t capacity)
      : capacity(capacity), index(RoundUpPow2(2 * capacity), kNone) {
    slots.reserve(capacity);
  }

  /// Slot id holding `key`, or kNone.
  uint32_t Find(const Key& key, uint32_t hash_hi) const RNE_REQUIRES(mu) {
    const size_t mask = index.size() - 1;
    size_t cell = hash_hi & mask;
    while (index[cell] != kNone) {
      const Slot& slot = slots[index[cell]];
      if (slot.hash_hi == hash_hi && slot.key == key) return index[cell];
      cell = (cell + 1) & mask;
    }
    return kNone;
  }

  /// Enters slot `id` (not yet indexed) at the first free cell from home.
  void IndexInsert(uint32_t id) RNE_REQUIRES(mu) {
    const size_t mask = index.size() - 1;
    size_t cell = slots[id].hash_hi & mask;
    while (index[cell] != kNone) cell = (cell + 1) & mask;
    index[cell] = id;
  }

  /// Removes slot `id` from the index by backward-shift deletion, so no
  /// tombstones ever lengthen a probe.
  void IndexErase(uint32_t id) RNE_REQUIRES(mu) {
    const size_t mask = index.size() - 1;
    size_t hole = slots[id].hash_hi & mask;
    while (index[hole] != id) hole = (hole + 1) & mask;
    size_t cell = (hole + 1) & mask;
    while (index[cell] != kNone) {
      // The entry at `cell` may fill the hole only if its home does not lie
      // cyclically in (hole, cell].
      const size_t home = slots[index[cell]].hash_hi & mask;
      if (((cell - home) & mask) >= ((cell - hole) & mask)) {
        index[hole] = index[cell];
        hole = cell;
      }
      cell = (cell + 1) & mask;
    }
    index[hole] = kNone;
  }

  void Unlink(uint32_t id) RNE_REQUIRES(mu) {
    const Slot& slot = slots[id];
    (slot.prev == kNone ? head : slots[slot.prev].next) = slot.next;
    (slot.next == kNone ? tail : slots[slot.next].prev) = slot.prev;
  }

  void PushFront(uint32_t id) RNE_REQUIRES(mu) {
    slots[id].prev = kNone;
    slots[id].next = head;
    (head == kNone ? tail : slots[head].prev) = id;
    head = id;
  }

  void Touch(uint32_t id) RNE_REQUIRES(mu) {
    if (head == id) return;
    Unlink(id);
    PushFront(id);
  }

  const size_t capacity;
  mutable Mutex mu;
  /// Grows by one per insert up to `capacity` (never reallocating), and
  /// keeps its length across Invalidate(); slots [0, size) are live.
  std::vector<Slot> slots RNE_GUARDED_BY(mu);
  /// Open-addressed slot ids, kNone = empty; at least twice `slots`.
  std::vector<uint32_t> index RNE_GUARDED_BY(mu);
  uint32_t size RNE_GUARDED_BY(mu) = 0;
  uint32_t head RNE_GUARDED_BY(mu) = kNone;  // most recently used
  uint32_t tail RNE_GUARDED_BY(mu) = kNone;  // eviction victim
  uint64_t hits RNE_GUARDED_BY(mu) = 0;
  uint64_t misses RNE_GUARDED_BY(mu) = 0;
  uint64_t insertions RNE_GUARDED_BY(mu) = 0;
  uint64_t evictions RNE_GUARDED_BY(mu) = 0;
};

namespace {

/// Hashes every request once and groups the indices by shard with a stable
/// counting sort.
BatchPlan& PlanBatch(std::span<const Request> requests, uint64_t generation,
                     size_t num_shards) {
  thread_local BatchPlan plan;
  const size_t mask = num_shards - 1;
  plan.hash.resize(requests.size());
  plan.order.resize(requests.size());
  plan.begin.assign(num_shards + 1, 0);
  for (size_t i = 0; i < requests.size(); ++i) {
    plan.hash[i] = HashKey(MakeKey(requests[i], generation));
    ++plan.begin[(plan.hash[i] & mask) + 1];
  }
  for (size_t i = 0; i < num_shards; ++i) plan.begin[i + 1] += plan.begin[i];
  // Fill each shard's run from its start; `begin` then holds the run ends,
  // which shift back into starts below.
  for (size_t i = 0; i < requests.size(); ++i) {
    plan.order[plan.begin[plan.hash[i] & mask]++] = i;
  }
  for (size_t i = num_shards; i > 0; --i) plan.begin[i] = plan.begin[i - 1];
  plan.begin[0] = 0;
  return plan;
}

}  // namespace

std::string CacheStats::ToJson() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "{\"hits\": %llu, \"misses\": %llu, \"insertions\": %llu, "
      "\"evictions\": %llu, \"invalidations\": %llu, \"generation\": %llu, "
      "\"entries\": %zu, \"capacity\": %zu, \"shards\": %zu, "
      "\"hit_rate\": %.4f}",
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(insertions),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(invalidations),
      static_cast<unsigned long long>(generation), entries, capacity, shards,
      hit_rate);
  return buf;
}

ResultCache::ResultCache(const ResultCacheOptions& options)
    : capacity_(std::max<size_t>(1, options.capacity)),
      shards_([this, &options] {
        const size_t shards =
            RoundUpPow2(std::max<size_t>(1, options.num_shards));
        // Slot ids are uint32_t with kNone reserved.
        const size_t per_shard =
            std::min(std::max<size_t>(1, capacity_ / shards), size_t{1} << 31);
        std::vector<std::unique_ptr<Shard>> built;
        built.reserve(shards);
        for (size_t i = 0; i < shards; ++i) {
          built.push_back(std::make_unique<Shard>(per_shard));
        }
        return built;
      }()) {}

ResultCache::~ResultCache() = default;

size_t ResultCache::LookupBatch(std::span<const Request> requests,
                                std::span<Response> out) {
  const uint64_t generation = this->generation();
  const BatchPlan& plan = PlanBatch(requests, generation, shards_.size());
  size_t hits = 0;
  for (size_t sh = 0; sh < shards_.size(); ++sh) {
    const size_t first = plan.begin[sh];
    const size_t last = plan.begin[sh + 1];
    if (first == last) continue;
    Shard& shard = *shards_[sh];
    MutexLock lock(&shard.mu);
    // After an Invalidate() the batch's keys are retired: all miss.
    const bool live = this->generation() == generation;
    size_t shard_hits = 0;
    for (size_t j = first; j < last; ++j) {
      const size_t i = plan.order[j];
      const Key key = MakeKey(requests[i], generation);
      const uint32_t hash_hi = HighHash(plan.hash[i]);
      const uint32_t id = live ? shard.Find(key, hash_hi) : kNone;
      Response& response = out[i];
      if (id == kNone) {
        response.cached = false;
        continue;
      }
      shard.Touch(id);
      const Slot& slot = shard.slots[id];
      response.status = Status::Ok();
      response.distance = slot.distance;
      response.knn = slot.knn;
      response.backend = slot.backend;
      response.exact = slot.exact;
      response.fell_back = false;
      response.cached = true;
      ++shard_hits;
    }
    shard.hits += shard_hits;
    shard.misses += (last - first) - shard_hits;
    hits += shard_hits;
  }
  return hits;
}

void ResultCache::InsertBatch(std::span<const Request> requests,
                              std::span<const Response> responses,
                              uint64_t generation) {
  // Keying by the caller's generation is what keeps a stale answer
  // unreachable; skipping it here only avoids storing a dead entry.
  if (generation != this->generation()) return;
  const BatchPlan& plan = PlanBatch(requests, generation, shards_.size());
  for (size_t sh = 0; sh < shards_.size(); ++sh) {
    const size_t first = plan.begin[sh];
    const size_t last = plan.begin[sh + 1];
    if (first == last) continue;
    Shard& shard = *shards_[sh];
    MutexLock lock(&shard.mu);
    // Checked under the lock: Invalidate() bumps the generation before it
    // resets this shard, so an answer either lands before the reset (and
    // is wiped) or sees the bump here (and is dropped).
    if (this->generation() != generation) continue;
    for (size_t j = first; j < last; ++j) {
      const size_t i = plan.order[j];
      const Response& response = responses[i];
      if (!Storable(response)) continue;
      ++shard.insertions;
      const Key key = MakeKey(requests[i], generation);
      const uint32_t hash_hi = HighHash(plan.hash[i]);
      uint32_t id = shard.Find(key, hash_hi);
      if (id != kNone) {
        // Refresh an existing entry in place (a concurrent miss on the same
        // key raced us here); value content is identical by construction.
        shard.Touch(id);
        continue;
      }
      if (shard.size < shard.capacity) {
        if (shard.size == shard.slots.size()) shard.slots.emplace_back();
        id = shard.size++;
      } else {
        id = shard.tail;
        shard.IndexErase(id);
        shard.Unlink(id);
        ++shard.evictions;
      }
      Slot& slot = shard.slots[id];
      slot.key = key;
      slot.hash_hi = hash_hi;
      slot.distance = response.distance;
      slot.knn.assign(response.knn.begin(), response.knn.end());
      slot.backend = response.backend;
      slot.exact = response.exact;
      shard.IndexInsert(id);
      shard.PushFront(id);
    }
  }
}

void ResultCache::Invalidate() {
  // The bump alone retires every live entry (their keys can no longer be
  // produced); the reset frees the slots for reuse now instead of one
  // eviction at a time. Slot vectors keep their capacity.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->size = 0;
    shard->head = kNone;
    shard->tail = kNone;
    std::fill(shard->index.begin(), shard->index.end(), kNone);
  }
  invalidations_.Add(1);
}

CacheStats ResultCache::Stats() const {
  CacheStats stats;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.entries += shard->size;
  }
  stats.invalidations = invalidations_.Value();
  stats.generation = generation_.load(std::memory_order_acquire);
  stats.capacity = capacity_;
  stats.shards = shards_.size();
  const double looked_up = static_cast<double>(stats.hits + stats.misses);
  stats.hit_rate =
      looked_up > 0.0 ? static_cast<double>(stats.hits) / looked_up : 0.0;
  return stats;
}

void ResultCache::CollectMetrics(obs::MetricsSample* out) const {
  const CacheStats stats = Stats();
  out->counters["serve.cache.hits"] += stats.hits;
  out->counters["serve.cache.misses"] += stats.misses;
  out->counters["serve.cache.insertions"] += stats.insertions;
  out->counters["serve.cache.evictions"] += stats.evictions;
  out->counters["serve.cache.invalidations"] += stats.invalidations;
  out->gauges["serve.cache.entries"] += static_cast<double>(stats.entries);
}

namespace {

/// Whether an answer repays a cache slot. A kNN list or an exact backend's
/// distance is a search (microseconds to milliseconds); a learned distance
/// is one L1 kernel, cheaper than the lookup that would save it.
bool WorthCaching(const Request& request, const Response& response) {
  return request.kind == RequestKind::kKnn || response.exact;
}

/// Requests picked out of a batch, with their positions in it. Each use is
/// a thread_local, so a warm thread allocates nothing per batch.
struct Subset {
  std::vector<Request> requests;
  std::vector<size_t> index;
  std::vector<Response> responses;

  void Clear() {
    requests.clear();
    index.clear();
  }
  void Add(const Request& request, size_t i) {
    requests.push_back(request);
    index.push_back(i);
  }
};

/// Inserts the answers worth caching; the cache applies its own status and
/// fallback rules to them. Nothing is hashed when none is worth it.
void InsertWorthCaching(ResultCache* cache, std::span<const Request> requests,
                        std::span<const Response> responses,
                        uint64_t generation) {
  size_t worth = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    worth += WorthCaching(requests[i], responses[i]) ? 1 : 0;
  }
  if (worth == 0) return;
  if (worth == requests.size()) {
    cache->InsertBatch(requests, responses, generation);
    return;
  }
  thread_local Subset kept;
  kept.Clear();
  kept.responses.resize(worth);
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!WorthCaching(requests[i], responses[i])) continue;
    kept.responses[kept.requests.size()] = responses[i];
    kept.requests.push_back(requests[i]);
  }
  cache->InsertBatch(kept.requests, kept.responses, generation);
}

}  // namespace

Status CachedEngine::QueryBatch(std::span<const Request> requests,
                                std::vector<Response>* out) {
  if (cache_ == nullptr) return engine_->QueryBatch(requests, out);
  // Read once, before any lookup: the misses' answers are inserted under
  // this generation, so if a RELOAD invalidates while the engine computes
  // them on the old model, they land under a retired key.
  const uint64_t generation = cache_->generation();
  out->resize(requests.size());
  // The answers are not known yet, so the lookup side decides by request
  // kind and by which backend answered distances last: a learned distance
  // answer is never inserted, so looking it up could only miss.
  thread_local Subset probe;
  probe.Clear();
  const bool exact = engine_->distances_exact();
  if (!exact) {
    for (size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].kind == RequestKind::kKnn) probe.Add(requests[i], i);
    }
  }
  size_t hits = 0;
  if (exact || probe.requests.size() == requests.size()) {
    hits = cache_->LookupBatch(requests, *out);
  } else if (!probe.requests.empty()) {
    probe.responses.resize(probe.requests.size());
    hits = cache_->LookupBatch(probe.requests, probe.responses);
    if (hits > 0) {
      for (Response& response : *out) response.cached = false;
      for (size_t j = 0; j < probe.index.size(); ++j) {
        if (!probe.responses[j].cached) continue;
        std::swap((*out)[probe.index[j]], probe.responses[j]);
      }
    }
  }
  if (hits == requests.size()) return Status::Ok();
  if (hits == 0) {
    // Discard OK: QueryEngine::QueryBatch always returns OK; failures are
    // per response.
    (void)engine_->QueryBatch(requests, out);
    InsertWorthCaching(cache_, requests, *out, generation);
    return Status::Ok();
  }
  // Some hits: the rest go to the engine as one smaller batch.
  thread_local Subset misses;
  misses.Clear();
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!(*out)[i].cached) misses.Add(requests[i], i);
  }
  // Discard OK: as above.
  (void)engine_->QueryBatch(misses.requests, &misses.responses);
  InsertWorthCaching(cache_, misses.requests, misses.responses, generation);
  for (size_t m = 0; m < misses.index.size(); ++m) {
    (*out)[misses.index[m]] = std::move(misses.responses[m]);
  }
  return Status::Ok();
}

}  // namespace rne::serve
