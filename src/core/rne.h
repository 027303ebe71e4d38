// RNE: learned road-network distance index (the paper's primary
// contribution). Build() partitions the network, trains the hierarchical
// embedding (phases 1-3), and flattens it into a |V| x d serving matrix;
// Query() answers an approximate shortest-path distance with one L1
// computation — no graph search.
//
// Typical use:
//   Graph g = MakeRoadNetwork({...});
//   Rne rne = Rne::Build(g, RneConfig{});
//   double approx_meters = rne.Query(s, t);
#ifndef RNE_CORE_RNE_H_
#define RNE_CORE_RNE_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/embedding.h"
#include "core/metric.h"
#include "core/trainer.h"
#include "partition/hierarchy.h"
#include "util/mmap_file.h"

namespace rne {

struct RneConfig {
  /// Embedding dimension d (paper: 64 for BJ, 128 for FLA/US-W).
  size_t dim = 64;
  /// Lp metric parameter; 1 is the paper's recommendation.
  double p = 1.0;
  /// false builds the flat RNE-Naive model (no partition hierarchy, no
  /// phase-1 training) for the Fig 7/11 ablations.
  bool hierarchical = true;
  /// Partition-tree shape (fanout kappa, leaf threshold delta).
  HierarchyOptions hierarchy;
  /// Training-phase parameters; `dim` and `p` above override the copies
  /// inside.
  TrainConfig train;
  /// Disable phase 3 (Fig 11 ablation).
  bool fine_tune = true;
};

/// Build-time breakdown reported by Build(). Phase indexes: 0 = hierarchy
/// embedding, 1 = vertex embedding, 2 = active fine-tuning.
struct RneBuildStats {
  double partition_seconds = 0.0;
  double train_seconds = 0.0;
  double total_seconds = 0.0;
  size_t samples_processed = 0;
  size_t num_tree_nodes = 0;
  double phase_seconds[3] = {0.0, 0.0, 0.0};
  size_t phase_samples[3] = {0, 0, 0};
  /// SGD worker threads actually used by the trainer (1 = sequential).
  size_t train_threads = 1;
  /// Exact training labels: the label-index build plus every labelling
  /// pass. Part of train_seconds; the passes also count in phase_seconds.
  double label_seconds = 0.0;
  /// Label-index footprint, held only while training.
  size_t label_index_bytes = 0;
};

/// Immutable trained model. Copyable (matrices + tree); cheap to move.
class Rne {
 public:
  /// Partitions, trains, and flattens. `stats` (optional) receives timings.
  static Rne Build(const Graph& g, const RneConfig& config,
                   RneBuildStats* stats = nullptr);

  /// Approximate shortest-path distance in the edge-weight unit.
  double Query(VertexId s, VertexId t) const {
    return MetricDist(vertex_emb_.Row(s), vertex_emb_.Row(t), p_) * scale_;
  }

  /// Batched one-to-many queries (the paper's dispatch workload: one rider
  /// against many candidate cars). Writes distances(s, targets[i]) into
  /// out[i]; out must have targets.size() entries. Streams the matrix rows
  /// sequentially, which the compiler vectorizes — measurably faster than
  /// calling Query in a loop.
  void QueryOneToMany(VertexId s, std::span<const VertexId> targets,
                      std::span<double> out) const;

  /// Approximate k nearest vertices to `s` among `targets` by embedding
  /// distance (brute-force scan; use RneIndex for large target sets).
  std::vector<std::pair<VertexId, double>> QueryKnn(
      VertexId s, std::span<const VertexId> targets, size_t k) const;

  size_t dim() const { return vertex_emb_.dim(); }
  double p() const { return p_; }
  /// Build provenance persisted with the model: worker threads resolved for
  /// the partition build and total build wall time. Zero when the model
  /// predates this field (older files load fine; the trailer is optional).
  uint32_t build_threads() const { return build_threads_; }
  double build_seconds() const { return build_seconds_; }
  /// Distance de-normalization factor baked into Query().
  double scale() const { return scale_; }
  size_t NumVertices() const { return vertex_emb_.rows(); }

  const EmbeddingMatrix& vertex_embeddings() const { return vertex_emb_; }
  /// Global embeddings of partition-tree nodes (row = node id), used by the
  /// range/kNN index.
  const EmbeddingMatrix& node_embeddings() const { return node_emb_; }
  const PartitionHierarchy& hierarchy() const { return *hierarchy_; }

  /// Serving footprint (the paper's "index size"): the |V| x d matrix.
  size_t IndexBytes() const { return vertex_emb_.MemoryBytes(); }

  /// Online refresh (extension beyond the paper's static setting): continues
  /// SGD directly on the flattened vertex matrix with fresh exact samples,
  /// e.g. after localized edge-weight changes. `lr0` as in TrainConfig.
  /// Node embeddings (used by RneIndex) are left untouched; rebuild indexes
  /// after large refreshes.
  void RefineOnline(const std::vector<DistanceSample>& samples, size_t epochs,
                    double lr0, uint64_t seed = 17);

  /// Saves the model with the embedding matrices in aligned sections so the
  /// file can be served via mmap.
  Status Save(const std::string& path) const;
  /// Loads a model. kHeap reads the matrices into owned storage; kMmap
  /// serves them zero-copy from a read-only mapping. Both verify every
  /// checksum before returning, so a loaded model is a verified model.
  static StatusOr<Rne> Load(const std::string& path,
                            LoadMode mode = LoadMode::kHeap);

  /// True when the matrices are views into an mmap'd file.
  bool IsMapped() const { return mapping_ != nullptr; }

 private:
  Rne() = default;
  static StatusOr<Rne> LoadMapped(const std::string& path);
  Status ParseMeta(BinaryReader& r, const std::string& path,
                   std::shared_ptr<PartitionHierarchy>* hierarchy);
  Status CheckConsistent(const std::string& path) const;

  std::shared_ptr<const PartitionHierarchy> hierarchy_;
  EmbeddingMatrix vertex_emb_;
  EmbeddingMatrix node_emb_;
  std::shared_ptr<const MappedEnvelope> mapping_;
  double p_ = 1.0;
  double scale_ = 1.0;
  uint32_t build_threads_ = 0;
  double build_seconds_ = 0.0;
};

}  // namespace rne

#endif  // RNE_CORE_RNE_H_
