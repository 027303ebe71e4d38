#include "algo/landmarks.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <utility>

#include "algo/dijkstra.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace rne {

std::vector<VertexId> SelectLandmarksRandom(const Graph& g, size_t count,
                                            Rng& rng) {
  const size_t n = g.NumVertices();
  count = std::min(count, n);
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  rng.Shuffle(all);
  all.resize(count);
  return all;
}

std::vector<VertexId> SelectLandmarksFarthest(const Graph& g, size_t count,
                                              Rng& rng) {
  const size_t n = g.NumVertices();
  count = std::min(count, n);
  std::vector<VertexId> landmarks;
  if (count == 0) return landmarks;
  landmarks.reserve(count);
  landmarks.push_back(static_cast<VertexId>(rng.UniformIndex(n)));

  // min_dist doubles as the search's tentative-distance array: a search
  // from the newest landmark relaxes a vertex only while it lowers min_dist,
  // so it stops at the boundary of the new landmark's Voronoi cell. Every
  // vertex it does not reach keeps its old (smaller or equal) minimum, and
  // one it reaches ends at exactly the distance a full search computes:
  // on the full search's shortest path to such a vertex, every earlier
  // vertex also lowers its minimum (fl(a + w) is monotone in a), so the
  // pruned search relaxes the same edges in the same way.
  std::vector<double> min_dist(n, kInfDistance);
  using Entry = std::pair<double, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  while (landmarks.size() < count) {
    min_dist[landmarks.back()] = 0.0;
    queue.push({0.0, landmarks.back()});
    while (!queue.empty()) {
      const auto [d, v] = queue.top();
      queue.pop();
      if (d > min_dist[v]) continue;
      for (const Edge& e : g.Neighbors(v)) {
        const double nd = d + e.weight;
        if (nd < min_dist[e.to]) {
          min_dist[e.to] = nd;
          queue.push({nd, e.to});
        }
      }
    }
    VertexId farthest = kInvalidVertex;
    double best = -1.0;
    for (VertexId v = 0; v < n; ++v) {
      // Unreachable vertices are skipped: they would otherwise absorb every
      // remaining pick on disconnected inputs.
      if (min_dist[v] != kInfDistance && min_dist[v] > best) {
        best = min_dist[v];
        farthest = v;
      }
    }
    if (farthest == kInvalidVertex || best == 0.0) break;  // graph exhausted
    landmarks.push_back(farthest);
  }
  return landmarks;
}

std::vector<double> ComputeLandmarkDistances(
    const Graph& g, const std::vector<VertexId>& landmarks,
    size_t num_threads) {
  RNE_SPAN("build.landmark_matrix");
  const size_t n = g.NumVertices();
  std::vector<double> out(landmarks.size() * n, kInfDistance);
  auto fill_row = [&](DijkstraSearch& search, size_t i) {
    const auto& dist = search.AllDistances(landmarks[i]);
    std::copy(dist.begin(), dist.end(),
              out.begin() + static_cast<long>(i * n));
  };
  const size_t threads =
      std::min(ResolveNumThreads(num_threads),
               std::max<size_t>(landmarks.size(), 1));
  if (threads <= 1) {
    DijkstraSearch search(g);
    for (size_t i = 0; i < landmarks.size(); ++i) fill_row(search, i);
  } else {
    ThreadPool pool(threads);
    std::vector<std::unique_ptr<DijkstraSearch>> scratch(pool.num_threads());
    pool.ParallelFor(landmarks.size(), [&](size_t i) {
      size_t slot = ThreadPool::CurrentWorkerIndex();
      if (slot == ThreadPool::kNotAWorker) slot = 0;
      if (!scratch[slot]) scratch[slot] = std::make_unique<DijkstraSearch>(g);
      fill_row(*scratch[slot], i);
    });
  }
  return out;
}

}  // namespace rne
