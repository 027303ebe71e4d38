// H2H [22]: tree-decomposition hierarchy + hop labeling, exact distances.
//
// Construction:
//  1. Eliminate vertices in minimum-degree order; eliminating v connects its
//     remaining neighbors with fill-in shortcuts (w(a,v) + w(v,b)). The
//     neighbor set at elimination time is v's bag X(v).
//  2. The elimination tree: parent(v) = the bag member eliminated first;
//     every bag member lies on v's root path (the tree-decomposition cut
//     property).
//  3. Top-down labeling: dist(v, a) for every ancestor a via the bag
//     recurrence d(v,a) = min_{x in X(v)} w(v,x) + d(x,a).
// Query: d(s,t) = min over the bag positions of LCA(s,t) of
// ds[pos] + dt[pos] — O(tree width) with an O(log) LCA. A query only reads
// the labels, the LCA table and the bag positions, so Distance() is const
// and safe to call concurrently on one index.
//
// The label arrays are O(|V| * tree height): the big-index/fast-query
// trade-off the paper reports for H2H in Table IV.
#ifndef RNE_BASELINES_H2H_H_
#define RNE_BASELINES_H2H_H_

#include <cstdint>
#include <vector>

#include "baselines/method.h"

namespace rne {

struct H2HOptions {
  /// Labeling workers; 0 = hardware concurrency. The elimination order is
  /// computed serially and labels are pure functions of the tree, so every
  /// thread count builds the bit-identical index (labels are parallel
  /// across independent elimination-tree subtrees).
  size_t num_threads = 0;
};

class H2HIndex : public DistanceMethod {
 public:
  explicit H2HIndex(const Graph& g, const H2HOptions& options = {});

  std::string Name() const override { return "H2H"; }
  double Query(VertexId s, VertexId t) override { return Distance(s, t); }
  /// Exact shortest distance s -> t; kInfDistance across components.
  double Distance(VertexId s, VertexId t) const;
  size_t IndexBytes() const override;
  bool IsExact() const override { return true; }

  size_t num_vertices() const { return n_; }
  /// Max bag size (graph tree-width + 1) — the query-cost driver.
  size_t max_bag_size() const { return max_bag_size_; }
  /// Max tree depth — the label-size driver.
  size_t tree_height() const { return tree_height_; }

  /// Lowest common ancestor in the elimination tree (exposed for tests).
  VertexId Lca(VertexId u, VertexId v) const;

 private:
  void Build(const Graph& g, const H2HOptions& options);

  size_t n_ = 0;
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> depth_;
  std::vector<uint32_t> root_of_;  // component root per vertex
  std::vector<std::vector<uint32_t>> up_;    // binary-lifting table
  std::vector<std::vector<double>> label_;   // label_[v][i] = d(v, anc@depth i)
  std::vector<std::vector<uint32_t>> pos_;   // bag-member depths per vertex
  size_t max_bag_size_ = 0;
  size_t tree_height_ = 0;
};

}  // namespace rne

#endif  // RNE_BASELINES_H2H_H_
