// Tree-structured index for range and kNN queries in embedding space
// (Sec VI). Reuses the partition tree: every node stores its global
// embedding (from the trained model) plus a covering radius — the maximum
// metric distance from the node's embedding to any target vertex embedding
// beneath it. The triangle inequality of the Lp metric then prunes subtrees:
//   dist(source, node) - radius(node) > tau  =>  no target under `node`
//   can be within tau of the source.
// Each leaf also stores its targets' distances to the leaf's embedding,
// sorted, so the same inequality skips single rows inside a scanned leaf:
//   |dist(source, leaf) - dist(row, leaf)| > tau  =>  row is beyond tau.
// Both cuts keep a relative margin above the kernels' rounding bound (see
// kernels.h), so answers equal brute force over Query() bit for bit.
#ifndef RNE_CORE_RNE_INDEX_H_
#define RNE_CORE_RNE_INDEX_H_

#include <span>
#include <utility>
#include <vector>

#include "core/rne.h"

namespace rne {

/// Range/kNN index over a target set (e.g. POIs); all distances are in the
/// edge-weight unit (the model's scale is applied internally). Results are
/// approximate exactly as Query() is: every distance is computed as
/// Query(source, target) computes it. Safe for concurrent queries.
class RneIndex {
 public:
  /// Indexes every vertex as a target. `model` must outlive the index.
  /// `num_threads` > 1 parallelizes the radius computation of the build
  /// (queries are unaffected); 0/1 builds sequentially.
  explicit RneIndex(const Rne* model, size_t num_threads = 1);
  /// Indexes only `targets` (must be valid vertex ids).
  RneIndex(const Rne* model, std::vector<VertexId> targets,
           size_t num_threads = 1);

  /// All targets t with Query(source, t) <= tau, unordered.
  std::vector<VertexId> Range(VertexId source, double tau) const;

  /// The min(k, num_targets()) targets with the smallest
  /// (Query(source, t), t), as (vertex, distance) in (distance, vertex id)
  /// order: equal distances come out by ascending id. The source vertex
  /// itself is included if it is a target.
  std::vector<std::pair<VertexId, double>> Knn(VertexId source,
                                               size_t k) const;

  size_t num_targets() const { return leaf_ids_.size(); }
  /// Extra memory on top of the model (radii + flat per-leaf target
  /// arrays: offsets, ids and distances to the leaf's embedding).
  size_t MemoryBytes() const;

 private:
  void Build(const std::vector<VertexId>& targets, size_t num_threads);
  /// Distance between two embeddings in the edge-weight unit, computed as
  /// Query() computes it: MetricDist(a, b, p) * scale, with the p = 1
  /// kernel (what MetricDist dispatches to) resolved once per index.
  double Dist(std::span<const float> a, std::span<const float> b) const {
    const double d = l1_ != nullptr ? l1_(a.data(), b.data(), a.size())
                                    : MetricDist(a, b, model_->p());
    return d * scale_;
  }
  /// Distance from `src` to node `id`'s embedding.
  double NodeDist(std::span<const float> src, uint32_t id) const {
    return Dist(src, model_->node_embeddings().Row(id));
  }
  /// True when `lower_bound` on a computed distance proves that distance
  /// is strictly above `cut_off`; `magnitude` is the sum of the distances
  /// the bound was derived from, which scales the rounding margin.
  bool Beyond(double lower_bound, double cut_off, double magnitude) const {
    return lower_bound > cut_off + slack_ * magnitude;
  }
  /// The one leaf scan shared by Range and Knn. Visits the targets of
  /// `leaf` (whose embedding is `center_dist` from `src`) in order of their
  /// distance to it, skips rows the per-row bound puts beyond `cut_off()`,
  /// and calls `accept(vertex, distance)` for every other row.
  template <typename CutOff, typename Accept>
  void ScanLeaf(uint32_t leaf, double center_dist,
                std::span<const float> src, CutOff cut_off,
                Accept accept) const;

  const Rne* model_;
  /// The active L1 kernel when the model's p is 1, else null.
  double (*l1_)(const float*, const float*, size_t) = nullptr;
  double scale_ = 1.0;
  /// Relative rounding margin of both bounds; +inf (no pruning) when the
  /// model's p < 1, which is not a metric.
  double slack_ = 0.0;
  /// radius per tree node in the edge-weight unit; negative = no targets.
  std::vector<double> radius_;
  /// Targets grouped by leaf: node `id`'s targets are entries
  /// [leaf_offsets_[id], leaf_offsets_[id + 1]) of the two arrays below
  /// (empty for internal nodes), sorted by (center distance, id).
  std::vector<uint32_t> leaf_offsets_;
  std::vector<VertexId> leaf_ids_;
  /// Distance of each target to its leaf's embedding (edge-weight unit).
  std::vector<double> leaf_center_dist_;
};

}  // namespace rne

#endif  // RNE_CORE_RNE_INDEX_H_
