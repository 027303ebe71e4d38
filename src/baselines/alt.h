// ALT landmarks [13]: a |U| x |V| matrix of exact distances from landmarks.
//
// Two uses:
//  * LT estimation (the paper's "LT" baseline): O(|U|) approximate distance
//    from the triangle inequality — max lower bound max_u |d(u,s) - d(u,t)|
//    and min upper bound min_u d(u,s) + d(u,t), combined as their midpoint.
//  * ALT A* search: the max lower bound is an admissible, consistent
//    heuristic, giving exact goal-directed search.
#ifndef RNE_BASELINES_ALT_H_
#define RNE_BASELINES_ALT_H_

#include <memory>
#include <vector>

#include "algo/astar.h"
#include "baselines/method.h"
#include "util/rng.h"

namespace rne {

class AltIndex : public DistanceMethod {
 public:
  /// Builds the landmark matrix with `num_landmarks` farthest-point
  /// landmarks (|U| single-source searches). Selection is sequential;
  /// the matrix rows fill across `num_threads` workers (0 = hardware) with
  /// thread-count-invariant results.
  AltIndex(const Graph& g, size_t num_landmarks, Rng& rng,
           size_t num_threads = 0);

  std::string Name() const override { return "LT"; }
  /// LT estimate: midpoint of the tightest triangle-inequality bounds.
  double Query(VertexId s, VertexId t) override;
  size_t IndexBytes() const override {
    return landmark_dist_.size() * sizeof(double);
  }
  bool IsExact() const override { return false; }

  /// Tightest lower bound max_u |d(u,s) - d(u,t)| (admissible heuristic).
  double LowerBound(VertexId s, VertexId t) const;
  /// Tightest upper bound min_u d(u,s) + d(u,t).
  double UpperBound(VertexId s, VertexId t) const;

  /// Exact distance via A* with the landmark heuristic (the "ALT" search).
  double ExactDistance(VertexId s, VertexId t);

  size_t num_landmarks() const { return num_landmarks_; }
  const std::vector<VertexId>& landmarks() const { return landmarks_; }

 private:
  double LandmarkDist(size_t landmark, VertexId v) const {
    return landmark_dist_[landmark * num_vertices_ + v];
  }

  size_t num_landmarks_ = 0;
  size_t num_vertices_ = 0;
  std::vector<VertexId> landmarks_;
  std::vector<double> landmark_dist_;  // row-major |U| x |V|
  std::unique_ptr<AStarSearch> astar_;
};

}  // namespace rne

#endif  // RNE_BASELINES_ALT_H_
