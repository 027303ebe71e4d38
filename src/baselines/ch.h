// Contraction Hierarchies [11] and their approximate variant ACH [12].
//
// Construction contracts vertices in importance order (edge difference +
// contracted-neighbor count + depth) in independent-set batches: each round
// re-ranks dirty vertices in parallel, selects every vertex whose
// (priority, id) is a strict local minimum over its uncontracted overlay
// neighbourhood, contracts the batch concurrently with per-worker witness
// scratch, and commits shortcuts at a barrier (DESIGN.md §14). Witness
// searches insert a shortcut u-w only when no witness path of length
// <= (1 + epsilon) * (w(u,v) + w(v,w)) avoids the contracted vertex;
// commit-time searches additionally avoid the whole current batch so a
// witness cannot vanish when its own interior is contracted in the same
// round. epsilon = 0 gives the exact CH (bounded witness searches only ever
// add *extra* shortcuts, preserving exactness); epsilon > 0 gives ACH,
// which drops near-redundant shortcuts at the cost of an error that
// compounds along the hierarchy (the paper measures ~4% at epsilon = 0.1).
// The schedule is a pure function of the graph, so every num_threads value
// (including 1) builds the bit-identical index.
//
// Queries run a bidirectional upward Dijkstra over the order: both sides
// relax only edges leading to more important vertices.
#ifndef RNE_BASELINES_CH_H_
#define RNE_BASELINES_CH_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "baselines/method.h"

namespace rne {

struct ChOptions {
  /// Relative witness tolerance; 0 = exact CH, > 0 = ACH.
  double epsilon = 0.0;
  /// Max settled vertices per witness search (bounds construction time;
  /// failed searches only add redundant shortcuts, never break exactness).
  size_t witness_settle_limit = 500;
  /// Contraction workers; 0 = hardware concurrency. The batch schedule is
  /// deterministic, so every thread count builds the identical index.
  size_t num_threads = 0;
};

class ContractionHierarchy : public DistanceMethod {
 public:
  ContractionHierarchy(const Graph& g, const ChOptions& options = {});

  std::string Name() const override {
    return options_.epsilon > 0.0 ? "ACH" : "CH";
  }
  double Query(VertexId s, VertexId t) override;
  size_t IndexBytes() const override;
  bool IsExact() const override { return options_.epsilon == 0.0; }

  size_t num_shortcuts() const { return num_shortcuts_; }
  /// Vertices settled by the last query (search-space diagnostics, Fig 13).
  size_t last_settled() const { return last_settled_; }

  /// Shortest path s -> t as a vertex sequence, with shortcuts recursively
  /// unpacked into original edges. Empty when unreachable. Exact when
  /// epsilon == 0; for ACH it is the path realizing Query()'s distance.
  std::vector<VertexId> Path(VertexId s, VertexId t);

 private:
  struct UpEdge {
    VertexId to;
    double weight;
    /// Contracted middle vertex for shortcut edges; kInvalidVertex for
    /// original road segments.
    VertexId via;
  };

  void Build(const Graph& g);
  /// Expands the (possibly shortcut) edge u -> v into original vertices,
  /// appending everything after `u` to `out`.
  void UnpackEdge(VertexId u, VertexId v, std::vector<VertexId>* out) const;
  /// Weight and middle vertex of the stored up-edge between u and v (the
  /// lower-ranked endpoint owns it).
  const UpEdge* FindUpEdge(VertexId u, VertexId v) const;

  ChOptions options_;
  size_t n_ = 0;
  std::vector<uint32_t> rank_;          // contraction order per vertex
  std::vector<uint32_t> up_offsets_;    // CSR of upward edges
  std::vector<UpEdge> up_edges_;
  size_t num_shortcuts_ = 0;
  size_t last_settled_ = 0;

  // Query workspace (version-stamped, one per direction).
  std::vector<double> dist_[2];
  std::vector<uint32_t> version_[2];
  uint32_t current_version_ = 0;
};

}  // namespace rne

#endif  // RNE_BASELINES_CH_H_
