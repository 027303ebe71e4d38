// Dijkstra's algorithm with a reusable search workspace.
//
// DijkstraSearch keeps its distance/parent arrays across queries using a
// version-stamp trick, so repeated queries on the same graph do no per-query
// allocation — the pattern every index builder in this library relies on.
#ifndef RNE_ALGO_DIJKSTRA_H_
#define RNE_ALGO_DIJKSTRA_H_

#include <queue>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace rne {

/// Reusable Dijkstra workspace bound to one graph.
/// Not thread-safe; create one instance per thread.
class DijkstraSearch {
 public:
  explicit DijkstraSearch(const Graph& g);

  /// Exact shortest distance s -> t with early termination, or kInfDistance.
  double Distance(VertexId s, VertexId t);

  /// Full single-source shortest distances. The returned reference is valid
  /// until the next call on this object; unreachable entries hold
  /// kInfDistance.
  const std::vector<double>& AllDistances(VertexId s);

  /// Distances from s to each vertex of `targets` (kInfDistance when
  /// unreachable). Terminates as soon as all targets settle.
  std::vector<double> MultiTargetDistances(
      VertexId s, const std::vector<VertexId>& targets);

  /// Vertices within `radius` of s, as (vertex, distance) pairs in
  /// nondecreasing distance order.
  std::vector<std::pair<VertexId, double>> WithinRadius(VertexId s,
                                                        double radius);

  /// Shortest path s -> t as a vertex sequence (s first, t last); empty if
  /// unreachable.
  std::vector<VertexId> Path(VertexId s, VertexId t);

  /// Number of vertices settled by the most recent query (search-space probe
  /// used by benchmarks).
  size_t last_settled() const { return last_settled_; }

 private:
  struct QueueEntry {
    double dist;
    VertexId v;
    bool operator>(const QueueEntry& o) const { return dist > o.dist; }
  };
  using MinQueue = std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                                       std::greater<QueueEntry>>;

  /// Lazily invalidates dist_/parent_ entries from previous runs.
  void BeginSearch(VertexId s, MinQueue& queue);
  bool Stale(VertexId v) const { return version_[v] != current_version_; }
  void Touch(VertexId v) {
    if (Stale(v)) {
      version_[v] = current_version_;
      dist_[v] = kInfDistance;
      parent_[v] = kInvalidVertex;
    }
  }
  /// Copies dist_ into a dense vector, writing kInfDistance for stale slots.
  std::vector<double> SnapshotDistances() const;

  const Graph& g_;
  std::vector<double> dist_;
  std::vector<VertexId> parent_;
  std::vector<uint32_t> version_;
  uint32_t current_version_ = 0;
  size_t last_settled_ = 0;
  std::vector<double> dense_;  // scratch for AllDistances
};

/// One-shot convenience wrappers (allocate a workspace internally).
double DijkstraDistance(const Graph& g, VertexId s, VertexId t);
std::vector<double> DijkstraAllDistances(const Graph& g, VertexId s);

}  // namespace rne

#endif  // RNE_ALGO_DIJKSTRA_H_
