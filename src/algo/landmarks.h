// Landmark selection (Sec V-B).
//
// Landmarks act as reference points for vertex-level training samples (and
// for the ALT baseline). Farthest-point selection iteratively adds the vertex
// with the largest network distance to the already-selected set, covering
// regions the current set misses.
#ifndef RNE_ALGO_LANDMARKS_H_
#define RNE_ALGO_LANDMARKS_H_

#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace rne {

/// `count` distinct vertices chosen uniformly at random.
std::vector<VertexId> SelectLandmarksRandom(const Graph& g, size_t count,
                                            Rng& rng);

/// Farthest-point landmark selection: the first landmark is random; each
/// subsequent one maximizes the min network distance to those selected.
/// Cost: `count` shortest-path searches (inherently sequential: each pick
/// depends on the previous landmark's distances). Each search after the
/// first is pruned to the vertices the new landmark is nearest to, and
/// picks exactly the landmarks full searches would.
std::vector<VertexId> SelectLandmarksFarthest(const Graph& g, size_t count,
                                              Rng& rng);

/// Row-major |landmarks| x |V| matrix of exact distances, one root Dijkstra
/// per landmark run across `num_threads` workers (0 = hardware). Rows are
/// independent, so the matrix is identical for every thread count.
std::vector<double> ComputeLandmarkDistances(
    const Graph& g, const std::vector<VertexId>& landmarks,
    size_t num_threads = 0);

}  // namespace rne

#endif  // RNE_ALGO_LANDMARKS_H_
