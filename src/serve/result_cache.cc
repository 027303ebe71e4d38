#include "serve/result_cache.h"

#include <algorithm>
#include <cstdio>

namespace rne::serve {
namespace {

/// splitmix64 finalizer — a fast, well-mixed stateless hash (the same
/// construction resilience.cc and fault_injection.cc use for seeding).
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

size_t ResultCache::KeyHash::operator()(const Key& key) const {
  uint64_t h = Mix64(key.generation ^ (static_cast<uint64_t>(key.kind) << 62));
  h = Mix64(h ^ (static_cast<uint64_t>(key.s) << 32) ^ key.tk);
  return static_cast<size_t>(h);
}

ResultCache::ResultCache(const ResultCacheOptions& options)
    : cache_fallback_(options.cache_fallback) {
  const size_t shards = RoundUpPow2(std::max<size_t>(1, options.num_shards));
  capacity_ = std::max<size_t>(1, options.capacity);
  per_shard_capacity_ = std::max<size_t>(1, capacity_ / shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Key ResultCache::MakeKey(const Request& request,
                                      uint64_t generation) {
  Key key;
  key.generation = generation;
  key.kind = static_cast<uint32_t>(request.kind);
  key.s = request.s;
  key.tk = request.kind == RequestKind::kDistance
               ? static_cast<uint64_t>(request.t)
               : static_cast<uint64_t>(request.k);
  return key;
}

ResultCache::Shard& ResultCache::ShardFor(const Key& key) {
  // shards_.size() is a power of two, so the mask keeps every hash bit fair.
  return *shards_[KeyHash()(key) & (shards_.size() - 1)];
}

bool ResultCache::Lookup(const Request& request, Response* out) {
  const Key key = MakeKey(request, generation());
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // Refresh recency: move the entry to the front of the shard's list.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      const Value& value = it->second->second;
      out->status = Status::Ok();
      out->distance = value.distance;
      out->knn = value.knn;
      out->backend = value.backend;
      out->exact = value.exact;
      out->fell_back = false;
      out->cached = true;
      out->latency_ns = 0;
      hits_.Add(1);
      RNE_COUNTER_ADD("serve.cache.hits", 1);
      return true;
    }
  }
  misses_.Add(1);
  RNE_COUNTER_ADD("serve.cache.misses", 1);
  return false;
}

void ResultCache::Insert(const Request& request, const Response& response,
                         uint64_t generation) {
  if (!response.status.ok()) return;
  if (response.fell_back && !cache_fallback_) return;
  // Keying by the caller's generation is what keeps a stale answer
  // unreachable; skipping it here only avoids storing a dead entry.
  if (generation != this->generation()) return;
  const Key key = MakeKey(request, generation);
  Shard& shard = ShardFor(key);
  int64_t delta = 0;
  uint64_t evicted = 0;
  {
    MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // Refresh an existing entry in place (a concurrent miss on the same
      // key raced us here); value content is identical by construction.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      if (shard.lru.size() >= per_shard_capacity_) {
        shard.map.erase(shard.lru.back().first);
        shard.lru.pop_back();
        ++evicted;
        --delta;
      }
      Value value;
      value.distance = response.distance;
      value.knn = response.knn;
      value.backend = response.backend;
      value.exact = response.exact;
      shard.lru.emplace_front(key, std::move(value));
      shard.map.emplace(key, shard.lru.begin());
      ++delta;
    }
  }
  insertions_.Add(1);
  RNE_COUNTER_ADD("serve.cache.insertions", 1);
  if (evicted > 0) {
    evictions_.Add(evicted);
    RNE_COUNTER_ADD("serve.cache.evictions", evicted);
  }
  if (delta != 0) {
    const int64_t entries =
        entries_.fetch_add(delta, std::memory_order_relaxed) + delta;
    RNE_GAUGE_SET("serve.cache.entries", static_cast<double>(entries));
  }
}

void ResultCache::Invalidate() {
  // The bump alone retires every live entry (their keys can no longer be
  // produced by MakeKey); the eager clear just releases the memory now
  // instead of one eviction at a time.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  int64_t removed = 0;
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    removed += static_cast<int64_t>(shard->lru.size());
    shard->map.clear();
    shard->lru.clear();
  }
  invalidations_.Add(1);
  RNE_COUNTER_ADD("serve.cache.invalidations", 1);
  const int64_t entries =
      entries_.fetch_sub(removed, std::memory_order_relaxed) - removed;
  RNE_GAUGE_SET("serve.cache.entries", static_cast<double>(entries));
}

CacheStats ResultCache::Stats() const {
  CacheStats stats;
  stats.hits = hits_.Value();
  stats.misses = misses_.Value();
  stats.insertions = insertions_.Value();
  stats.evictions = evictions_.Value();
  stats.invalidations = invalidations_.Value();
  stats.generation = generation_.load(std::memory_order_acquire);
  stats.entries =
      static_cast<size_t>(std::max<int64_t>(0, entries_.load()));
  stats.capacity = capacity_;
  stats.shards = shards_.size();
  const double looked_up = static_cast<double>(stats.hits + stats.misses);
  stats.hit_rate =
      looked_up > 0.0 ? static_cast<double>(stats.hits) / looked_up : 0.0;
  return stats;
}

Status CachedEngine::QueryBatch(std::span<const Request> requests,
                                std::vector<Response>* out) {
  if (cache_ == nullptr) return engine_->QueryBatch(requests, out);
  // Read once, before any lookup: the misses' answers are inserted under
  // this generation, so if a RELOAD invalidates while the engine computes
  // them on the old model, they land under a retired key.
  const uint64_t generation = cache_->generation();
  out->clear();
  out->resize(requests.size());
  std::vector<Request> misses;
  std::vector<size_t> miss_index;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!cache_->Lookup(requests[i], &(*out)[i])) {
      misses.push_back(requests[i]);
      miss_index.push_back(i);
    }
  }
  if (misses.empty()) return Status::Ok();
  std::vector<Response> miss_out;
  const Status admitted = engine_->QueryBatch(misses, &miss_out);
  if (!admitted.ok()) {
    if (miss_index.size() == requests.size()) return admitted;
    // Partial service: the hits already answered, so reject only the
    // misses (per-response) instead of failing the whole batch.
    for (const size_t i : miss_index) {
      (*out)[i].status = admitted;
    }
    return Status::Ok();
  }
  for (size_t m = 0; m < miss_index.size(); ++m) {
    cache_->Insert(misses[m], miss_out[m], generation);
    (*out)[miss_index[m]] = std::move(miss_out[m]);
  }
  return Status::Ok();
}

}  // namespace rne::serve
