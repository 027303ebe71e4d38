#include "baselines/alt.h"

#include <algorithm>
#include <cmath>

#include "algo/dijkstra.h"
#include "algo/landmarks.h"
#include "obs/trace.h"

namespace rne {

AltIndex::AltIndex(const Graph& g, size_t num_landmarks, Rng& rng,
                   size_t num_threads)
    : num_vertices_(g.NumVertices()),
      astar_(std::make_unique<AStarSearch>(g)) {
  RNE_SPAN("build.alt");
  landmarks_ = SelectLandmarksFarthest(g, num_landmarks, rng);
  num_landmarks_ = landmarks_.size();
  RNE_CHECK(num_landmarks_ > 0);
  landmark_dist_ = ComputeLandmarkDistances(g, landmarks_, num_threads);
}

double AltIndex::LowerBound(VertexId s, VertexId t) const {
  double best = 0.0;
  for (size_t i = 0; i < num_landmarks_; ++i) {
    const double ds = LandmarkDist(i, s);
    const double dt = LandmarkDist(i, t);
    if (ds == kInfDistance || dt == kInfDistance) continue;
    best = std::max(best, std::abs(ds - dt));
  }
  return best;
}

double AltIndex::UpperBound(VertexId s, VertexId t) const {
  double best = kInfDistance;
  for (size_t i = 0; i < num_landmarks_; ++i) {
    const double ds = LandmarkDist(i, s);
    const double dt = LandmarkDist(i, t);
    if (ds == kInfDistance || dt == kInfDistance) continue;
    best = std::min(best, ds + dt);
  }
  return best;
}

double AltIndex::Query(VertexId s, VertexId t) {
  if (s == t) return 0.0;
  // One pass computes both bounds (the hot loop of the LT baseline).
  double lb = 0.0, ub = kInfDistance;
  for (size_t i = 0; i < num_landmarks_; ++i) {
    const double ds = LandmarkDist(i, s);
    const double dt = LandmarkDist(i, t);
    lb = std::max(lb, std::abs(ds - dt));
    const double sum = ds + dt;
    if (sum < ub) ub = sum;
  }
  if (ub == kInfDistance) return kInfDistance;
  return 0.5 * (lb + ub);
}

double AltIndex::ExactDistance(VertexId s, VertexId t) {
  return astar_->Distance(
      s, t, [this, t](VertexId v, VertexId) { return LowerBound(v, t); });
}

}  // namespace rne
