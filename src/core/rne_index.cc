#include "core/rne_index.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "core/kernels.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace rne {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Relative margin of the triangle-inequality cuts. A computed distance is
// within eps_f/2 = 2^-24 (~6e-8) of the exact metric value (kernels.h), and
// every bound combines at most three computed distances, each then scaled
// by one more correctly rounded multiply; 1e-6 covers that with room to
// spare, so a cut never drops a row whose computed distance would be kept.
constexpr double kBoundSlack = 1e-6;

struct NodeEntry {
  double lower_bound;  // max(center_dist - radius, 0)
  double center_dist;
  uint32_t id;
  bool operator>(const NodeEntry& o) const {
    return lower_bound > o.lower_bound;
  }
};

// Per-thread query scratch, so a search allocates nothing but its result
// once the vectors have grown to their working size.
struct Scratch {
  std::vector<NodeEntry> nodes;                   // kNN min-heap of nodes
  std::vector<std::pair<double, VertexId>> best;  // kNN max-heap, top = k-th
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
  l1_ = model_->p() == 1.0 ? ActiveKernels().l1 : nullptr;
  scale_ = model_->scale();
  slack_ = model_->p() >= 1.0 ? kBoundSlack : kInf;

  // Group the targets by leaf (counting sort into the flat arrays).
  leaf_offsets_.assign(hier.num_nodes() + 1, 0);
  for (const VertexId v : targets) ++leaf_offsets_[hier.LeafOf(v) + 1];
  for (size_t id = 0; id < hier.num_nodes(); ++id) {
    leaf_offsets_[id + 1] += leaf_offsets_[id];
  }
  std::vector<uint32_t> next(leaf_offsets_.begin(), leaf_offsets_.end() - 1);
  leaf_ids_.resize(targets.size());
  for (const VertexId v : targets) leaf_ids_[next[hier.LeafOf(v)]++] = v;
  leaf_center_dist_.assign(targets.size(), 0.0);

  radius_.assign(hier.num_nodes(), -1.0);
  // Bottom-up: visit nodes by decreasing level so children precede parents.
  std::vector<uint32_t> order(hier.num_nodes());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return hier.node(a).level > hier.node(b).level;
  });
  // Radius must be measured from the node's own embedding to the target
  // vertices' embeddings, so compute it directly per node over the targets
  // in its subtree. Collect subtree targets bottom-up (cheap list splicing),
  // then scan the distance maxima — the O(levels * |targets| * dim) hot part
  // — in parallel over nodes: every node writes only its own radius_ slot
  // and, for a leaf, its own slice of the flat arrays.
  std::vector<std::vector<VertexId>> subtree(hier.num_nodes());
  std::vector<uint32_t> populated;
  populated.reserve(hier.num_nodes());
  for (const uint32_t id : order) {
    const auto& node = hier.node(id);
    std::vector<VertexId>& mine = subtree[id];
    if (node.IsLeaf()) {
      mine.assign(leaf_ids_.begin() + leaf_offsets_[id],
                  leaf_ids_.begin() + leaf_offsets_[id + 1]);
    } else {
      for (const uint32_t c : node.children) {
        mine.insert(mine.end(), subtree[c].begin(), subtree[c].end());
      }
    }
    if (!mine.empty()) populated.push_back(id);
  }
  const auto radius_of = [&](uint32_t id) {
    const auto center = model_->node_embeddings().Row(id);
    const auto dist = [&](VertexId v) {
      return Dist(center, model_->vertex_embeddings().Row(v));
    };
    if (!hier.node(id).IsLeaf()) {
      double r = 0.0;
      for (const VertexId v : subtree[id]) r = std::max(r, dist(v));
      radius_[id] = r;
      return;
    }
    // A leaf's rows, sorted by (distance to its embedding, id); the
    // largest of those distances is its radius.
    const uint32_t begin = leaf_offsets_[id];
    std::vector<std::pair<double, VertexId>> rows;
    rows.reserve(subtree[id].size());
    for (const VertexId v : subtree[id]) rows.emplace_back(dist(v), v);
    std::sort(rows.begin(), rows.end());
    for (size_t i = 0; i < rows.size(); ++i) {
      leaf_center_dist_[begin + i] = rows[i].first;
      leaf_ids_[begin + i] = rows[i].second;
    }
    radius_[id] = rows.back().first;
  };
  if (num_threads > 1 && populated.size() > 1) {
    ThreadPool pool(num_threads);
    pool.ParallelFor(populated.size(),
                     [&](size_t i) { radius_of(populated[i]); });
  } else {
    for (const uint32_t id : populated) radius_of(id);
  }
}

template <typename CutOff, typename Accept>
void RneIndex::ScanLeaf(uint32_t leaf, double center_dist,
                        std::span<const float> src, CutOff cut_off,
                        Accept accept) const {
  const EmbeddingMatrix& rows = model_->vertex_embeddings();
  for (uint32_t i = leaf_offsets_[leaf]; i < leaf_offsets_[leaf + 1]; ++i) {
    const double row_dist = leaf_center_dist_[i];
    const double tau = cut_off();
    const double magnitude = center_dist + row_dist + tau;
    // Rows ascend in row_dist and tau only shrinks, so once a row lies too
    // far outside the source's ring around the center, every later one does.
    if (Beyond(row_dist - center_dist, tau, magnitude)) break;
    if (Beyond(center_dist - row_dist, tau, magnitude)) continue;
    const VertexId v = leaf_ids_[i];
    accept(v, Dist(src, rows.Row(v)));  // bit-identical to Query(source, v)
  }
}

std::vector<VertexId> RneIndex::Range(VertexId source, double tau) const {
  std::vector<VertexId> result;
  RNE_COUNTER_ADD("index.range.queries", 1);
  // Distances are never negative, so a negative (or NaN) tau matches none.
  if (!(tau >= 0.0) || num_targets() == 0) return result;
  const PartitionHierarchy& hier = model_->hierarchy();
  const auto src = model_->vertex_embeddings().Row(source);
  std::vector<uint32_t>& stack = LocalScratch().stack;
  stack.assign(1, hier.root());
  const auto cut_off = [tau] { return tau; };
  const auto accept = [&](VertexId v, double d) {
    if (d <= tau) result.push_back(v);
  };
  // visited: nodes expanded; pruned: nodes bounded but not expanded.
  uint64_t visited = 0, pruned = 0;
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    if (radius_[id] < 0.0) continue;  // no targets below
    const double center_dist = NodeDist(src, id);
    if (Beyond(center_dist - radius_[id], tau,
               center_dist + radius_[id] + tau)) {  // triangle-inequality cut
      ++pruned;
      continue;
    }
    ++visited;
    const auto& node = hier.node(id);
    if (node.IsLeaf()) {
      ScanLeaf(id, center_dist, src, cut_off, accept);
    } else {
      for (const uint32_t c : node.children) stack.push_back(c);
    }
  }
  RNE_COUNTER_ADD("index.range.nodes_visited", visited);
  RNE_COUNTER_ADD("index.range.nodes_pruned", pruned);
  return result;
}

std::vector<std::pair<VertexId, double>> RneIndex::Knn(VertexId source,
                                                       size_t k) const {
  std::vector<std::pair<VertexId, double>> result;
  if (k == 0 || num_targets() == 0) return result;
  RNE_COUNTER_ADD("index.knn.queries", 1);
  const PartitionHierarchy& hier = model_->hierarchy();
  const auto src = model_->vertex_embeddings().Row(source);
  Scratch& scratch = LocalScratch();
  // The k best (distance, id) pairs so far as a max-heap: best.front() is
  // the k-th, and `kth` its distance (+inf until k rows have been seen).
  auto& best = scratch.best;
  // Nodes still to expand, as a min-heap on their lower bound.
  auto& heap = scratch.nodes;
  best.clear();
  heap.clear();
  double kth = kInf;
  const auto cut_off = [&kth] { return kth; };
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
    if (best.size() == k) kth = best.front().first;
  };

  // expanded: nodes whose leaf was scanned or whose children were bounded.
  // bounded: nodes whose lower bound was computed but never expanded.
  uint64_t expanded = 0, bounded = 0;
  // Seed the top-k from the source's own leaf: its targets tend to be the
  // nearest, so kth is tight before the first subtree is bounded.
  const uint32_t home = hier.LeafOf(source);
  if (radius_[home] >= 0.0) {
    ScanLeaf(home, NodeDist(src, home), src, cut_off, accept);
    ++expanded;
  }
  const auto offer = [&](uint32_t id) {
    if (id == home || radius_[id] < 0.0) return;
    const double d = NodeDist(src, id);
    const double lower_bound = std::max(d - radius_[id], 0.0);
    if (Beyond(lower_bound, kth, d + radius_[id] + kth)) {
      ++bounded;
      return;
    }
    heap.push_back({lower_bound, d, id});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  };
  offer(hier.root());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const NodeEntry e = heap.back();
    heap.pop_back();
    // kth has shrunk since this node was pushed. Popping the rest costs no
    // distance; their margins differ, so one cut does not imply the next.
    if (Beyond(e.lower_bound, kth, e.center_dist + radius_[e.id] + kth)) {
      ++bounded;
      continue;
    }
    ++expanded;
    const auto& node = hier.node(e.id);
    if (node.IsLeaf()) {
      ScanLeaf(e.id, e.center_dist, src, cut_off, accept);
    } else {
      for (const uint32_t c : node.children) offer(c);
    }
  }
  RNE_COUNTER_ADD("index.knn.nodes_visited", expanded);
  RNE_COUNTER_ADD("index.knn.nodes_pruned", bounded);

  std::sort_heap(best.begin(), best.end());
  result.reserve(best.size());
  for (const auto& [d, v] : best) result.emplace_back(v, d);
  return result;
}

size_t RneIndex::MemoryBytes() const {
  return radius_.size() * sizeof(double) +
         leaf_offsets_.size() * sizeof(uint32_t) +
         leaf_ids_.size() * sizeof(VertexId) +
         leaf_center_dist_.size() * sizeof(double);
}

}  // namespace rne
