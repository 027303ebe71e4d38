// K x K spatial grid over vertex coordinates (Sec V-C).
//
// The active fine-tuning step needs uniform samples from "all vertex pairs at
// grid distance b" without materializing |V|^2 pairs. Vertices are hashed
// into a K x K grid; the K^2 x K^2 cell pairs are bucketed by grid distance
// |dr| + |dc| into 2K-1 buckets; sampling draws a cell pair proportional to
// |g_s|*|g_t| and then a uniform vertex from each cell — giving
// (near-)uniform pair selection inside each bucket with O(K^4) space and
// O(log) time.
#ifndef RNE_CORE_SPATIAL_GRID_H_
#define RNE_CORE_SPATIAL_GRID_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace rne {

class SpatialGrid {
 public:
  /// Builds a k x k grid over the bounding box of g's coordinates.
  SpatialGrid(const Graph& g, size_t k);

  size_t k() const { return k_; }
  /// Number of grid-distance buckets (2k - 1).
  size_t num_buckets() const { return 2 * k_ - 1; }

  /// Grid cell index of a vertex.
  size_t CellOf(VertexId v) const;
  /// Grid-distance bucket of a vertex pair: |dr| + |dc| of their cells.
  size_t BucketOfPair(VertexId s, VertexId t) const;

  /// True if bucket `b` contains at least one pair of (possibly equal)
  /// non-empty cells.
  bool BucketNonEmpty(size_t b) const { return !buckets_[b].pairs.empty(); }

  /// Draws a vertex pair from bucket `b` (cell pair proportional to
  /// population product, vertices uniform within cells). Returns false if
  /// the bucket is empty. s == t is possible for bucket 0 and is resampled
  /// by callers that need distinct endpoints.
  bool SamplePair(size_t b, Rng& rng, VertexId* s, VertexId* t) const;

  const std::vector<VertexId>& CellVertices(size_t cell) const {
    return cells_[cell];
  }

 private:
  struct Bucket {
    std::vector<std::pair<uint32_t, uint32_t>> pairs;  // (cell_s, cell_t)
    std::vector<double> cumulative;  // running sum of |g_s| * |g_t|
  };

  size_t k_;
  double min_x_, min_y_, cell_w_, cell_h_;
  std::vector<std::vector<VertexId>> cells_;  // cell -> vertices
  std::vector<uint32_t> cell_of_;             // vertex -> cell
  std::vector<Bucket> buckets_;
};

}  // namespace rne

#endif  // RNE_CORE_SPATIAL_GRID_H_
