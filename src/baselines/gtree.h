// G-tree [35][36]: the partition-tree distance index that V-tree [28]
// extends for moving-object kNN. Used as the paper's V-tree comparator in
// the Fig 16 experiments (static targets).
//
// Structure: the road network is recursively partitioned (reusing
// PartitionHierarchy). Every tree node stores its *borders* — vertices with
// an edge leaving the node's vertex set — plus distance matrices:
//   * leaf L:      d(b, v) for b in B(L), v in V(L);
//   * internal n:  d(x, y) for x, y in U(n) = union of children borders.
// All matrix entries are exact global shortest distances, computed with one
// single-source search per leaf border (every border of every node is a
// border of some leaf, so leaf-border sources cover every entry).
//
// Queries:
//   * Distance(s, t): dynamic programming up the two leaf-to-LCA paths
//     (d(s, B(node)) climbs via the parent matrices), joined through the
//     LCA matrix; same-leaf queries take min(local Dijkstra, via-border).
//   * Knn(s, k): best-first search over tree nodes, each keyed by the
//     admissible bound min_b d(s, b); leaves expand their target vertices
//     through the leaf matrix.
#ifndef RNE_BASELINES_GTREE_H_
#define RNE_BASELINES_GTREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "baselines/method.h"
#include "partition/hierarchy.h"

namespace rne {

struct GTreeOptions {
  size_t fanout = 4;
  size_t leaf_size = 64;
  /// Build workers (0 = hardware), shared by the partitioning phase and the
  /// per-source matrix SSSPs.
  size_t num_threads = 0;
  /// Below this many leaf-border sources the matrix fill stays serial (pool
  /// startup would dominate). Has no effect on the resulting index.
  size_t parallel_source_cutoff = 8;
  uint64_t seed = 19;
};

class GTree : public DistanceMethod {
 public:
  GTree(const Graph& g, const GTreeOptions& options = {});

  std::string Name() const override { return "GTree"; }
  /// Exact shortest-path distance (kInfDistance when disconnected).
  double Query(VertexId s, VertexId t) override { return Distance(s, t); }
  size_t IndexBytes() const override;
  bool IsExact() const override { return true; }

  double Distance(VertexId s, VertexId t);

  /// Restricts Knn()/Range() to a target subset (default: all vertices).
  void SetTargets(const std::vector<VertexId>& targets);

  /// Exact k nearest targets by network distance, sorted ascending.
  std::vector<std::pair<VertexId, double>> Knn(VertexId s, size_t k);

  /// Exact targets within network distance tau (unordered).
  std::vector<VertexId> Range(VertexId s, double tau);

  const PartitionHierarchy& hierarchy() const { return *hier_; }
  size_t num_borders() const { return num_leaf_borders_; }

 private:
  struct NodeData {
    std::vector<VertexId> borders;      // B(node)
    std::vector<VertexId> junction;     // U(node): union of children borders
                                        // (empty for leaves)
    /// leaf: |B| x |V(leaf)|; internal: |U| x |U|, row-major. A view into
    /// matrix_pool_.
    std::span<const double> matrix;
    std::vector<uint32_t> border_in_junction;  // index of B(node)[i] in U
    /// Per child (ordered as hierarchy children): junction indices of that
    /// child's borders (precomputed to keep queries scan-free).
    std::vector<std::vector<uint32_t>> child_border_in_junction;
    std::vector<VertexId> targets;      // target vertices (leaves only)
  };

  void ComputeBorders(const Graph& g);
  void ComputeMatrices(const Graph& g, const GTreeOptions& options);

  /// Points every node's matrix span at its slice of `pool`.
  void BindMatrixSpans(const double* pool,
                       const std::vector<uint64_t>& matrix_lens);

  /// Shared best-first engine behind Knn (tau = inf) and Range (k = all).
  std::vector<std::pair<VertexId, double>> BestFirst(VertexId s, size_t k,
                                                     double tau);

  double LeafLocalDistance(uint32_t leaf, VertexId s, VertexId t) const;
  /// d(s, b) for every b in B(node) for each node on the leaf-to-root path
  /// of s, bottom-up. Front = leaf of s.
  std::vector<std::vector<double>> ClimbFrom(VertexId s) const;

  /// Index of vertex v inside its leaf's vertex list.
  uint32_t IndexInLeaf(VertexId v) const {
    return vertex_pos_in_leaf_[v];
  }
  /// Index of border vertex b inside junction list of `node`; UINT32_MAX if
  /// absent.
  static uint32_t IndexOf(const std::vector<VertexId>& list, VertexId v);
  /// Position of `child` in `parent`'s children list.
  size_t ChildSlot(uint32_t parent, uint32_t child) const;

  const Graph* g_;
  std::unique_ptr<PartitionHierarchy> hier_;
  std::vector<NodeData> nodes_;
  std::vector<uint32_t> vertex_pos_in_leaf_;
  size_t num_leaf_borders_ = 0;
  /// All node matrices concatenated in node-id order, allocated once by
  /// the build. Node spans alias this pool, so GTree is move-only (vector
  /// data is stable under move).
  std::vector<double> matrix_pool_;
};

}  // namespace rne

#endif  // RNE_BASELINES_GTREE_H_
