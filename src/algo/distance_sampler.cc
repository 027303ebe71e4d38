#include "algo/distance_sampler.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <unordered_map>

#include "algo/dijkstra.h"
#include "util/thread_pool.h"

namespace rne {

DistanceSampler::DistanceSampler(const Graph& g, size_t num_threads)
    : g_(g),
      num_threads_(
          num_threads == 0
              ? std::max<size_t>(1, std::thread::hardware_concurrency())
              : num_threads) {}

std::vector<DistanceSample> DistanceSampler::ComputeDistances(
    const std::vector<std::pair<VertexId, VertexId>>& pairs) const {
  std::vector<DistanceSample> out(pairs.size());
  // Group requests by source vertex.
  struct Request {
    VertexId target;
    size_t out_index;
  };
  std::unordered_map<VertexId, std::vector<Request>> by_source;
  by_source.reserve(pairs.size() / 4 + 1);
  for (size_t i = 0; i < pairs.size(); ++i) {
    RNE_CHECK(pairs[i].first < g_.NumVertices());
    RNE_CHECK(pairs[i].second < g_.NumVertices());
    out[i] = {pairs[i].first, pairs[i].second, 0.0};
    by_source[pairs[i].first].push_back({pairs[i].second, i});
  }

  std::vector<std::pair<VertexId, const std::vector<Request>*>> groups;
  groups.reserve(by_source.size());
  for (const auto& [src, reqs] : by_source) groups.emplace_back(src, &reqs);

  auto solve_group = [this, &out](DijkstraSearch& search, VertexId src,
                                  const std::vector<Request>& reqs) {
    // With many targets a full SSSP is cheaper than multi-target early exit.
    if (reqs.size() * 8 >= g_.NumVertices()) {
      const auto& dist = search.AllDistances(src);
      for (const Request& r : reqs) out[r.out_index].dist = dist[r.target];
    } else {
      std::vector<VertexId> targets(reqs.size());
      for (size_t i = 0; i < reqs.size(); ++i) targets[i] = reqs[i].target;
      const auto dist = search.MultiTargetDistances(src, targets);
      for (size_t i = 0; i < reqs.size(); ++i) {
        out[reqs[i].out_index].dist = dist[i];
      }
    }
  };

  if (num_threads_ <= 1 || groups.size() <= 1) {
    DijkstraSearch search(g_);
    for (const auto& [src, reqs] : groups) solve_group(search, src, *reqs);
    return out;
  }

  ThreadPool pool(num_threads_);
  const size_t shards = pool.num_threads();
  std::vector<std::unique_ptr<DijkstraSearch>> searches;
  searches.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    searches.push_back(std::make_unique<DijkstraSearch>(g_));
  }
  for (size_t shard = 0; shard < shards; ++shard) {
    pool.Submit([&, shard] {
      for (size_t i = shard; i < groups.size(); i += shards) {
        solve_group(*searches[shard], groups[i].first, *groups[i].second);
      }
    });
  }
  pool.Wait();
  return out;
}

std::vector<DistanceSample> DistanceSampler::RandomPairs(size_t n,
                                                         Rng& rng) const {
  RNE_CHECK(g_.NumVertices() >= 2);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto s = static_cast<VertexId>(rng.UniformIndex(g_.NumVertices()));
    VertexId t = s;
    while (t == s) {
      t = static_cast<VertexId>(rng.UniformIndex(g_.NumVertices()));
    }
    pairs.emplace_back(s, t);
  }
  return ComputeDistances(pairs);
}

}  // namespace rne
