// Tree-structured index for range and kNN queries in embedding space
// (Sec VI). Reuses the partition tree, but bounds it with pivots instead of
// the paper's node embedding plus covering radius: kPivots targets chosen by
// farthest-point traversal, and every target's stored distances to them (a
// LAESA pivot table). For any pivot p the triangle inequality of the Lp
// metric gives
//   d(s, r) >= |d(s, p) - d(r, p)|,
// so a row whose largest such difference is beyond the cut-off is skipped
// without computing d(s, r), and a tree node whose per-pivot [min, max] box
// of stored distances lies beyond the cut-off is never expanded. Neither
// bound runs a distance kernel; a query computes only its kPivots source
// distances. Every cut keeps a relative margin above the rounding of the
// kernels and of the float-stored table (DESIGN.md §17), so answers equal
// brute force over Query() bit for bit.
#ifndef RNE_CORE_RNE_INDEX_H_
#define RNE_CORE_RNE_INDEX_H_

#include <array>
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
  /// Pivots per index, from a sweep over {4, 8, 16} (EXPERIMENTS.md); an
  /// index over fewer targets uses every target as a pivot.
  static constexpr size_t kPivots = 8;

  /// Indexes every vertex as a target. `model` must outlive the index.
  /// `num_threads` > 1 parallelizes the pivot-table passes of the build
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
  /// Extra memory on top of the model (flat per-leaf target arrays, the
  /// pivot table, the per-node pivot boxes and the pivot ids).
  size_t MemoryBytes() const;

 private:
  /// A vertex's distances to the pivots, as stored (unused slots are 0).
  using PivotDists = std::array<float, kPivots>;

  void Build(const std::vector<VertexId>& targets, size_t num_threads);
  /// Distance between two embeddings in the edge-weight unit, computed as
  /// Query() computes it: MetricDist(a, b, p) * scale, with the p = 1
  /// kernel (what MetricDist dispatches to) resolved once per index.
  double Dist(std::span<const float> a, std::span<const float> b) const {
    const double d = l1_ != nullptr ? l1_(a.data(), b.data(), a.size())
                                    : MetricDist(a, b, model_->p());
    return d * scale_;
  }
  /// Fills `ds` with the source's pivot distances; returns the magnitude
  /// that scales the query's rounding margin besides its cut-off.
  double SourcePivots(std::span<const float> src, PivotDists& ds) const;
  /// The cut-off plus its rounding margin: a bound above it proves every
  /// row it covers is strictly beyond `cut_off`. +inf when the model's
  /// p < 1, which is not a metric, so nothing is pruned.
  double Limit(double cut_off, double magnitude) const;
  /// Lower bound on d(source, r) for the target in leaf-order slot `i`.
  float RowBound(const PivotDists& ds, uint32_t i) const;
  /// Lower bound on d(source, r) for every target r under node `id`;
  /// +inf for a node without targets.
  float NodeBound(const PivotDists& ds, uint32_t id) const;
  /// The one leaf scan shared by Range and Knn: computes the distance of
  /// every row of `leaf` whose bound is within `limit` and passes it to
  /// `accept(vertex, distance)`, which may lower `limit` (it is read per
  /// row). Returns the number of distances computed.
  template <typename Accept>
  uint64_t ScanLeaf(uint32_t leaf, const PivotDists& ds,
                    std::span<const float> src, const double& limit,
                    Accept accept) const;

  const Rne* model_;
  /// The active L1 kernel when the model's p is 1, else null.
  double (*l1_)(const float*, const float*, size_t) = nullptr;
  double scale_ = 1.0;
  /// False when the model's p < 1: the bounds are invalid, none is used.
  bool metric_ = true;
  /// Targets grouped by leaf: node `id`'s targets are entries
  /// [leaf_offsets_[id], leaf_offsets_[id + 1]) of leaf_ids_ (empty for
  /// internal nodes), and slot i's pivot distances are
  /// pivot_dist_[i * kPivots, (i + 1) * kPivots).
  std::vector<uint32_t> leaf_offsets_;
  std::vector<VertexId> leaf_ids_;
  std::vector<float> pivot_dist_;
  /// The pivots (at most kPivots target ids) and the largest stored
  /// distance to any of them.
  std::vector<VertexId> pivots_;
  double max_stored_ = 0.0;
  /// Per node, kPivots lows then kPivots highs: the range of its targets'
  /// stored distances to each pivot; [+inf, -inf] without targets.
  std::vector<float> boxes_;
};

}  // namespace rne

#endif  // RNE_CORE_RNE_INDEX_H_
