#include "core/rne_index.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "core/kernels.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace rne {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kPivots = RneIndex::kPivots;

// Relative margin of the pivot cuts. A computed distance is within
// eps_f/2 = 2^-24 (~6e-8) of the exact metric value (kernels.h), storing
// it as a float adds another 2^-24, and a bound subtracts two such values
// in float; 1e-6 times (source pivot distance + stored distance + cut-off)
// covers all of it with room to spare (DESIGN.md §17), so a cut never
// drops a row whose computed distance would be kept.
constexpr double kBoundSlack = 1e-6;

// The largest of kPivots lanes, as halving element-wise maxima: a
// loop-carried float max is never reassociated, so the compiler would
// leave it scalar, while these steps vectorize.
float LaneMax(std::array<float, kPivots>& m) {
  for (size_t w = kPivots / 2; w > 0; w /= 2) {
    for (size_t j = 0; j < w; ++j) m[j] = std::max(m[j], m[j + w]);
  }
  return m[0];
}

struct NodeEntry {
  float bound;
  uint32_t id;
  bool operator>(const NodeEntry& o) const { return bound > o.bound; }
};

// Per-thread query scratch, so a search allocates nothing but its result
// once the vectors have grown to their working size.
struct Scratch {
  std::vector<NodeEntry> nodes;                   // kNN min-heap of nodes
  std::vector<std::pair<double, VertexId>> best;  // kNN max-heap, top = k-th
  std::vector<std::pair<float, uint32_t>> seed;   // home leaf (bound, slot)
  std::vector<uint32_t> stack;                    // range DFS stack
};

Scratch& LocalScratch() {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace

RneIndex::RneIndex(const Rne* model, size_t num_threads) : model_(model) {
  std::vector<VertexId> all(model->NumVertices());
  for (VertexId v = 0; v < all.size(); ++v) all[v] = v;
  Build(all, num_threads);
}

RneIndex::RneIndex(const Rne* model, std::vector<VertexId> targets,
                   size_t num_threads)
    : model_(model) {
  for (const VertexId v : targets) RNE_CHECK(v < model_->NumVertices());
  Build(targets, num_threads);
}

void RneIndex::Build(const std::vector<VertexId>& targets, size_t num_threads) {
  const PartitionHierarchy& hier = model_->hierarchy();
  const EmbeddingMatrix& rows = model_->vertex_embeddings();
  l1_ = model_->p() == 1.0 ? ActiveKernels().l1 : nullptr;
  scale_ = model_->scale();
  metric_ = model_->p() >= 1.0;

  // Group the targets by leaf (counting sort into the flat arrays).
  leaf_offsets_.assign(hier.num_nodes() + 1, 0);
  for (const VertexId v : targets) ++leaf_offsets_[hier.LeafOf(v) + 1];
  for (size_t id = 0; id < hier.num_nodes(); ++id) {
    leaf_offsets_[id + 1] += leaf_offsets_[id];
  }
  std::vector<uint32_t> next(leaf_offsets_.begin(), leaf_offsets_.end() - 1);
  const size_t n = targets.size();
  leaf_ids_.resize(n);
  for (const VertexId v : targets) leaf_ids_[next[hier.LeafOf(v)]++] = v;

  // Pivots by farthest-point traversal, from the first target in leaf
  // order. Each pass measures every target against the newest pivot, which
  // fills that pivot's column of the table and lowers each target's
  // distance to its nearest pivot; the next pivot is the target farthest
  // from all chosen ones (the lowest slot on ties). A chosen slot is
  // marked -1 so no target is chosen twice, and an index of at most
  // kPivots targets uses every one. Unused columns stay 0.
  pivot_dist_.assign(n * kPivots, 0.0f);
  std::vector<double> nearest(n, kInf);
  // One block of slots per build thread; every slot's values are the same
  // whichever block computes them.
  const size_t blocks = std::max<size_t>(1, std::min(num_threads, n));
  const size_t block_size = (n + blocks - 1) / blocks;
  std::unique_ptr<ThreadPool> pool;
  if (blocks > 1) pool = std::make_unique<ThreadPool>(blocks);
  size_t slot = 0;
  for (size_t j = 0; j < std::min(kPivots, n); ++j) {
    const VertexId pivot = leaf_ids_[slot];
    pivots_.push_back(pivot);
    nearest[slot] = -1.0;
    const auto pass = [&](size_t block) {
      const size_t end = std::min(n, (block + 1) * block_size);
      for (size_t i = block * block_size; i < end; ++i) {
        const double d = Dist(rows.Row(leaf_ids_[i]), rows.Row(pivot));
        pivot_dist_[i * kPivots + j] = static_cast<float>(d);
        if (nearest[i] > d) nearest[i] = d;  // never a chosen slot's -1
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(blocks, pass);
    } else {
      pass(0);
    }
    slot = std::max_element(nearest.begin(), nearest.end()) - nearest.begin();
  }
  for (const float d : pivot_dist_) {
    max_stored_ = std::max<double>(max_stored_, d);
  }

  // Boxes: every target widens the box of its leaf and of each ancestor.
  boxes_.resize(hier.num_nodes() * 2 * kPivots);
  for (size_t id = 0; id < hier.num_nodes(); ++id) {
    float* box = &boxes_[id * 2 * kPivots];
    std::fill(box, box + kPivots, std::numeric_limits<float>::infinity());
    std::fill(box + kPivots, box + 2 * kPivots,
              -std::numeric_limits<float>::infinity());
  }
  for (size_t i = 0; i < n; ++i) {
    const float* row = &pivot_dist_[i * kPivots];
    for (uint32_t id = hier.LeafOf(leaf_ids_[i]); id != UINT32_MAX;
         id = hier.node(id).parent) {
      float* box = &boxes_[id * 2 * kPivots];
      for (size_t j = 0; j < kPivots; ++j) {
        box[j] = std::min(box[j], row[j]);
        box[kPivots + j] = std::max(box[kPivots + j], row[j]);
      }
    }
  }
}

double RneIndex::SourcePivots(std::span<const float> src,
                              PivotDists& ds) const {
  ds.fill(0.0f);
  double largest = 0.0;
  for (size_t j = 0; j < pivots_.size(); ++j) {
    const double d = Dist(src, model_->vertex_embeddings().Row(pivots_[j]));
    ds[j] = static_cast<float>(d);
    largest = std::max(largest, d);
  }
  return largest + max_stored_;
}

double RneIndex::Limit(double cut_off, double magnitude) const {
  return metric_ ? cut_off + kBoundSlack * (magnitude + cut_off) : kInf;
}

float RneIndex::RowBound(const PivotDists& ds, uint32_t i) const {
  const float* row = &pivot_dist_[size_t{i} * kPivots];
  PivotDists m;
  for (size_t j = 0; j < kPivots; ++j) m[j] = std::fabs(ds[j] - row[j]);
  return LaneMax(m);
}

float RneIndex::NodeBound(const PivotDists& ds, uint32_t id) const {
  const float* lo = &boxes_[size_t{id} * 2 * kPivots];
  const float* hi = lo + kPivots;
  PivotDists m;
  for (size_t j = 0; j < kPivots; ++j) {
    m[j] = std::max(lo[j] - ds[j], ds[j] - hi[j]);
  }
  return LaneMax(m);  // negative when the source lies inside the box
}

template <typename Accept>
uint64_t RneIndex::ScanLeaf(uint32_t leaf, const PivotDists& ds,
                            std::span<const float> src, const double& limit,
                            Accept accept) const {
  const EmbeddingMatrix& rows = model_->vertex_embeddings();
  uint64_t computed = 0;
  for (uint32_t i = leaf_offsets_[leaf]; i < leaf_offsets_[leaf + 1]; ++i) {
    if (RowBound(ds, i) > limit) continue;
    const VertexId v = leaf_ids_[i];
    accept(v, Dist(src, rows.Row(v)));  // bit-identical to Query(source, v)
    ++computed;
  }
  return computed;
}

std::vector<VertexId> RneIndex::Range(VertexId source, double tau) const {
  std::vector<VertexId> result;
  RNE_COUNTER_ADD("index.range.queries", 1);
  // Distances are never negative, so a negative (or NaN) tau matches none.
  if (!(tau >= 0.0) || num_targets() == 0) return result;
  const PartitionHierarchy& hier = model_->hierarchy();
  const auto src = model_->vertex_embeddings().Row(source);
  PivotDists ds;
  const double limit = Limit(tau, SourcePivots(src, ds));
  std::vector<uint32_t>& stack = LocalScratch().stack;
  stack.assign(1, hier.root());
  const auto accept = [&](VertexId v, double d) {
    if (d <= tau) result.push_back(v);
  };
  uint64_t visited = 0, computed = 0;  // nodes expanded, rows measured
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    if (NodeBound(ds, id) > limit) continue;  // also every empty node
    ++visited;
    const auto& node = hier.node(id);
    if (node.IsLeaf()) {
      computed += ScanLeaf(id, ds, src, limit, accept);
    } else {
      for (const uint32_t c : node.children) stack.push_back(c);
    }
  }
  RNE_COUNTER_ADD("index.range.nodes_visited", visited);
  RNE_COUNTER_ADD("index.range.rows_computed", computed);
  return result;
}

std::vector<std::pair<VertexId, double>> RneIndex::Knn(VertexId source,
                                                       size_t k) const {
  std::vector<std::pair<VertexId, double>> result;
  if (k == 0 || num_targets() == 0) return result;
  RNE_COUNTER_ADD("index.knn.queries", 1);
  const PartitionHierarchy& hier = model_->hierarchy();
  const EmbeddingMatrix& rows = model_->vertex_embeddings();
  const auto src = rows.Row(source);
  PivotDists ds;
  const double magnitude = SourcePivots(src, ds);
  Scratch& scratch = LocalScratch();
  // The k best (distance, id) pairs so far as a max-heap: best.front() is
  // the k-th. A bound above `limit` proves its rows are beyond the k-th
  // distance; +inf until k rows have been seen.
  auto& best = scratch.best;
  // Nodes still to expand, as a min-heap on their bound.
  auto& heap = scratch.nodes;
  best.clear();
  heap.clear();
  double limit = kInf;
  const auto accept = [&](VertexId v, double d) {
    const std::pair<double, VertexId> row(d, v);
    if (best.size() == k) {
      if (!(row < best.front())) return;
      std::pop_heap(best.begin(), best.end());
      best.back() = row;
    } else {
      best.push_back(row);
    }
    std::push_heap(best.begin(), best.end());
    if (best.size() == k) limit = Limit(best.front().first, magnitude);
  };

  // visited: leaves scanned and internal nodes whose children were bounded.
  uint64_t visited = 0, computed = 0;
  // Seed the top-k from the source's own leaf, whose targets tend to be the
  // nearest: its k smallest-bound rows first, so the cut-off is tight
  // before the rest of the leaf and the first subtree are bounded.
  const uint32_t home = hier.LeafOf(source);
  if (leaf_offsets_[home] < leaf_offsets_[home + 1]) {
    auto& seed = scratch.seed;
    seed.clear();
    for (uint32_t i = leaf_offsets_[home]; i < leaf_offsets_[home + 1]; ++i) {
      seed.emplace_back(RowBound(ds, i), i);
    }
    const size_t first = std::min(k, seed.size());
    std::nth_element(seed.begin(), seed.begin() + first, seed.end());
    for (size_t r = 0; r < seed.size(); ++r) {
      if (r >= first && seed[r].first > limit) continue;
      const VertexId v = leaf_ids_[seed[r].second];
      accept(v, Dist(src, rows.Row(v)));
      ++computed;
    }
    ++visited;
  }
  heap.push_back({NodeBound(ds, hier.root()), hier.root()});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const NodeEntry e = heap.back();
    heap.pop_back();
    // The limit only shrinks and the heap pops bounds in ascending order,
    // so every node still queued is beyond it too.
    if (e.bound > limit) break;
    const auto& node = hier.node(e.id);
    if (node.IsLeaf()) {
      if (e.id == home) continue;  // seeded above
      computed += ScanLeaf(e.id, ds, src, limit, accept);
    } else {
      for (const uint32_t c : node.children) {
        const float bound = NodeBound(ds, c);
        if (bound > limit) continue;
        heap.push_back({bound, c});
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      }
    }
    ++visited;
  }
  RNE_COUNTER_ADD("index.knn.nodes_visited", visited);
  RNE_COUNTER_ADD("index.knn.rows_computed", computed);

  std::sort_heap(best.begin(), best.end());
  result.reserve(best.size());
  for (const auto& [d, v] : best) result.emplace_back(v, d);
  return result;
}

size_t RneIndex::MemoryBytes() const {
  return leaf_offsets_.size() * sizeof(uint32_t) +
         leaf_ids_.size() * sizeof(VertexId) +
         pivot_dist_.size() * sizeof(float) + boxes_.size() * sizeof(float) +
         pivots_.size() * sizeof(VertexId);
}

}  // namespace rne
