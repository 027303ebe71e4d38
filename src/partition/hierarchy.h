// Recursive graph-partitioning hierarchy (Sec IV-A of the paper).
//
// The road network is partitioned into kappa sub-graphs, each sub-graph
// recursively partitioned again until it holds at most delta vertices,
// forming a tree: root = whole network, internal nodes = sub-graphs, leaves =
// small sub-graphs whose children are the real vertices. The hierarchical
// RNE model attaches a local embedding to every non-root tree node and every
// vertex; the tree also backs the range/kNN index of Sec VI.
#ifndef RNE_PARTITION_HIERARCHY_H_
#define RNE_PARTITION_HIERARCHY_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "partition/partitioner.h"
#include "util/serialize.h"
#include "util/status.h"

namespace rne {

struct HierarchyOptions {
  /// Partitioning fanout kappa (> 1).
  size_t fanout = 4;
  /// Vertex-count threshold delta: nodes with at most this many vertices are
  /// not subdivided further.
  size_t leaf_threshold = 64;
  /// Hard cap on subdivision depth (0 = unlimited).
  size_t max_levels = 0;
  /// Options forwarded to each PartitionGraph call (num_parts is overridden).
  PartitionOptions partition;
};

/// Immutable partition tree over a graph's vertex set.
class PartitionHierarchy {
 public:
  struct Node {
    uint32_t parent = UINT32_MAX;  // UINT32_MAX for the root
    uint32_t level = 0;            // root = 0, its children = 1, ...
    std::vector<uint32_t> children;
    /// Vertices of the underlying graph contained in this node's sub-graph.
    std::vector<VertexId> vertices;
    bool IsLeaf() const { return children.empty(); }
  };

  /// Builds the hierarchy by recursive kappa-way partitioning.
  static PartitionHierarchy Build(const Graph& g,
                                  const HierarchyOptions& options);

  size_t num_nodes() const { return nodes_.size(); }
  const Node& node(uint32_t id) const {
    RNE_DCHECK(id < nodes_.size());
    return nodes_[id];
  }
  uint32_t root() const { return 0; }

  /// Number of vertices of the underlying graph.
  size_t num_vertices() const { return leaf_of_.size(); }

  /// Deepest node level (leaves may sit shallower on ragged trees).
  uint32_t max_level() const { return max_level_; }

  /// Id of the leaf node containing vertex v.
  uint32_t LeafOf(VertexId v) const {
    RNE_DCHECK(v < leaf_of_.size());
    return leaf_of_[v];
  }

  /// Node ids on the root-to-leaf path of v, excluding the root (the root's
  /// local embedding is shared by every vertex and cancels in differences).
  /// Ordered top-down: level 1 first.
  const std::vector<uint32_t>& AncestorsOf(VertexId v) const {
    RNE_DCHECK(v < ancestors_.size());
    return ancestors_[v];
  }

  /// All node ids with node.level == level.
  const std::vector<uint32_t>& NodesAtLevel(uint32_t level) const {
    RNE_DCHECK(level <= max_level_);
    return levels_[level];
  }

  /// Node ids forming a partition of the whole vertex set at depth `level`:
  /// the nodes at `level` plus any leaves that ended shallower. This is the
  /// paper's P_l for ragged trees.
  std::vector<uint32_t> PartitionAtLevel(uint32_t level) const;

  /// Streaming persistence inside a saved RNE model (Rne::Save/Load); the
  /// hierarchy has no file of its own.
  void WriteTo(BinaryWriter& w) const;
  static bool ReadFrom(BinaryReader& r, PartitionHierarchy* out);

 private:
  std::vector<Node> nodes_;
  std::vector<std::vector<uint32_t>> levels_;  // level -> node ids
  std::vector<uint32_t> leaf_of_;              // vertex -> leaf node id
  std::vector<std::vector<uint32_t>> ancestors_;  // vertex -> path (no root)
  uint32_t max_level_ = 0;

  /// Derives levels_/leaf_of_/ancestors_ from nodes_. False if the tree is
  /// structurally invalid (possible when nodes_ came from a corrupt file).
  bool FinishConstruction();
};

}  // namespace rne

#endif  // RNE_PARTITION_HIERARCHY_H_
