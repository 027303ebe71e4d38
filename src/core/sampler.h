// Training-sample selection strategies (Algorithm 2).
//
// Phase 1 (hierarchy): sub-graph pairs uniform, then vertices uniform within
// each sub-graph — so every pair of level-l partitions is represented
// regardless of its size.
// Phase 2 (vertices): landmark-based pairs (u in U, v in V) that anchor all
// vertices against a small, well-spread reference set.
// Phase 3 (fine-tuning): error-based pairs drawn from the distance-interval
// buckets of a SpatialGrid, either all from the worst bucket (Local) or
// proportional to per-bucket error (Global).
#ifndef RNE_CORE_SAMPLER_H_
#define RNE_CORE_SAMPLER_H_

#include <utility>
#include <vector>

#include "core/spatial_grid.h"
#include "partition/hierarchy.h"
#include "util/rng.h"

namespace rne {

using VertexPair = std::pair<VertexId, VertexId>;

/// Uniformly random vertex pairs with distinct endpoints. `source_reuse`
/// keeps each drawn source for that many consecutive pairs: the marginal
/// distribution of single pairs is unchanged, but grouped sources let the
/// exact-distance sampler amortize one search over several pairs.
std::vector<VertexPair> RandomVertexPairs(size_t num_vertices, size_t n,
                                          Rng& rng, size_t source_reuse = 1);

/// Sub-graph-level sample selection for hierarchy level `level` (Alg 2 (1)):
/// choose a pair of level-`level` partitions uniformly, then one vertex
/// uniformly from each side. `source_reuse` as in RandomVertexPairs.
std::vector<VertexPair> SubgraphLevelPairs(const PartitionHierarchy& hier,
                                           uint32_t level, size_t n, Rng& rng,
                                           size_t source_reuse = 1);

/// Landmark-based selection (Alg 2 (2)): pairs (u, v) with u uniform over
/// `landmarks` and v uniform over all vertices.
std::vector<VertexPair> LandmarkPairs(const std::vector<VertexId>& landmarks,
                                      size_t num_vertices, size_t n, Rng& rng);

/// Error-based fine-tuning strategies (Alg 2 (3), Fig 8b).
enum class FineTuneStrategy {
  /// All samples from the bucket with the highest current error.
  kLocal,
  /// Samples spread over buckets proportionally to their error.
  kGlobal,
};

/// Draws `n` pairs according to per-bucket errors (size = grid.num_buckets();
/// non-positive error means "skip bucket"). Buckets with no pairs are
/// skipped. `source_reuse` keeps the drawn source vertex for several target
/// draws from the same cell pair.
std::vector<VertexPair> ErrorBasedPairs(
    const SpatialGrid& grid, const std::vector<double>& bucket_errors,
    FineTuneStrategy strategy, size_t n, Rng& rng, size_t source_reuse = 1);

}  // namespace rne

#endif  // RNE_CORE_SAMPLER_H_
