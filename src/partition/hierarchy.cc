#include "partition/hierarchy.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "graph/subgraph.h"
#include "obs/trace.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace rne {

PartitionHierarchy PartitionHierarchy::Build(const Graph& g,
                                             const HierarchyOptions& options) {
  RNE_CHECK(options.fanout >= 2);
  RNE_CHECK(options.leaf_threshold >= 1);
  RNE_SPAN("build.hierarchy");

  PartitionHierarchy h;
  h.leaf_of_.assign(g.NumVertices(), UINT32_MAX);

  Node root;
  root.parent = UINT32_MAX;
  root.level = 0;
  root.vertices.resize(g.NumVertices());
  std::iota(root.vertices.begin(), root.vertices.end(), 0);
  h.nodes_.push_back(std::move(root));

  // Level-synchronous subdivision: every node of a level partitions
  // concurrently against the frozen tree, then children are appended
  // serially in node-id order. Each node's partition is seeded from its id
  // (assigned breadth-first, so ids — and therefore the whole tree — do not
  // depend on the thread count). While a level has one splittable node
  // (e.g. the root), PartitionGraph parallelizes internally instead; the
  // inner thread count is 1 otherwise, so pools never nest.
  const size_t num_threads = ResolveNumThreads(options.partition.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);

  std::vector<uint32_t> frontier = {0};
  while (!frontier.empty()) {
    std::vector<uint32_t> splittable;
    for (const uint32_t id : frontier) {
      const Node& node = h.nodes_[id];
      const bool depth_capped =
          options.max_levels != 0 && node.level + 1 >= options.max_levels;
      if (node.vertices.size() <= options.leaf_threshold || depth_capped) {
        continue;  // leaf
      }
      splittable.push_back(id);
    }

    std::vector<std::vector<std::vector<VertexId>>> groups(splittable.size());
    auto split_node = [&](size_t i, size_t inner_threads) {
      const uint32_t id = splittable[i];
      const std::vector<VertexId>& vertices = h.nodes_[id].vertices;
      const size_t parts = std::min(options.fanout, vertices.size());
      auto [sub, to_parent] = InducedSubgraph(g, vertices);
      PartitionOptions popt = options.partition;
      popt.num_parts = parts;
      popt.seed = MixSeed(options.partition.seed, id);
      popt.num_threads = inner_threads;
      const PartitionResult pr = PartitionGraph(sub, popt);
      groups[i].resize(parts);
      for (VertexId local = 0; local < sub.NumVertices(); ++local) {
        groups[i][pr.part_of[local]].push_back(to_parent[local]);
      }
    };
    if (pool != nullptr && splittable.size() > 1) {
      pool->ParallelFor(splittable.size(),
                        [&](size_t i) { split_node(i, /*inner_threads=*/1); });
    } else {
      for (size_t i = 0; i < splittable.size(); ++i) {
        split_node(i, num_threads);
      }
    }

    std::vector<uint32_t> next;
    for (size_t i = 0; i < splittable.size(); ++i) {
      const uint32_t id = splittable[i];
      const uint32_t level = h.nodes_[id].level;
      for (auto& group : groups[i]) {
        if (group.empty()) continue;
        Node child;
        child.parent = id;
        child.level = level + 1;
        child.vertices = std::move(group);
        const auto child_id = static_cast<uint32_t>(h.nodes_.size());
        h.nodes_.push_back(std::move(child));
        h.nodes_[id].children.push_back(child_id);
        next.push_back(child_id);
      }
    }
    frontier = std::move(next);
  }

  RNE_CHECK_MSG(h.FinishConstruction(), "Build produced an invalid tree");
  return h;
}

bool PartitionHierarchy::FinishConstruction() {
  max_level_ = 0;
  for (const Node& n : nodes_) max_level_ = std::max(max_level_, n.level);
  levels_.assign(max_level_ + 1, {});
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    levels_[nodes_[id].level].push_back(id);
  }
  // Map vertices to leaves and record root-free ancestor paths. A vertex
  // assigned to two leaves, or to none, means the tree is invalid — this is
  // reachable from corrupt files, so report instead of aborting.
  ancestors_.assign(leaf_of_.size(), {});
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    if (!nodes_[id].IsLeaf()) continue;
    for (const VertexId v : nodes_[id].vertices) {
      if (leaf_of_[v] != UINT32_MAX) return false;
      leaf_of_[v] = id;
    }
  }
  for (VertexId v = 0; v < leaf_of_.size(); ++v) {
    if (leaf_of_[v] == UINT32_MAX) return false;
    std::vector<uint32_t> path;
    for (uint32_t id = leaf_of_[v]; id != UINT32_MAX && nodes_[id].level > 0;
         id = nodes_[id].parent) {
      path.push_back(id);
    }
    std::reverse(path.begin(), path.end());
    ancestors_[v] = std::move(path);
  }
  return true;
}

std::vector<uint32_t> PartitionHierarchy::PartitionAtLevel(
    uint32_t level) const {
  std::vector<uint32_t> out;
  for (uint32_t l = 0; l <= std::min(level, max_level_); ++l) {
    for (const uint32_t id : levels_[l]) {
      if (nodes_[id].level == level || (nodes_[id].IsLeaf() && l < level)) {
        out.push_back(id);
      }
    }
  }
  return out;
}

void PartitionHierarchy::WriteTo(BinaryWriter& w) const {
  w.WritePod<uint64_t>(nodes_.size());
  w.WritePod<uint64_t>(leaf_of_.size());
  for (const Node& n : nodes_) {
    w.WritePod(n.parent);
    w.WritePod(n.level);
    w.WriteVector(n.children);
    w.WriteVector(n.vertices);
  }
}

bool PartitionHierarchy::ReadFrom(BinaryReader& r, PartitionHierarchy* out) {
  uint64_t num_nodes = 0, num_vertices = 0;
  if (!r.ReadPod(&num_nodes) || !r.ReadPod(&num_vertices)) return false;
  // Each node occupies at least 24 payload bytes (parent, level, two length
  // prefixes) and each vertex at least 4 (its slot in a leaf's vertex list),
  // so corrupt counts fail here before any large resize.
  if (num_nodes == 0 || num_nodes > r.remaining() / 24 ||
      num_vertices > r.remaining() / sizeof(VertexId) ||
      num_nodes > UINT32_MAX || num_vertices > UINT32_MAX) {
    return false;
  }
  out->nodes_.resize(num_nodes);
  out->leaf_of_.assign(num_vertices, UINT32_MAX);
  for (uint32_t id = 0; id < num_nodes; ++id) {
    Node& n = out->nodes_[id];
    if (!r.ReadPod(&n.parent) || !r.ReadPod(&n.level) ||
        !r.ReadVector(&n.children) || !r.ReadVector(&n.vertices)) {
      return false;
    }
    // Structural validation keeps FinishConstruction (and everything built
    // on the tree) crash-free on corrupt input: every id must be in range,
    // parents must precede children (which rules out cycles), and levels
    // must increase by exactly one along every edge.
    if (id == 0) {
      if (n.parent != UINT32_MAX || n.level != 0) return false;
    } else if (n.parent >= id || n.level != out->nodes_[n.parent].level + 1) {
      return false;
    }
    for (const uint32_t c : n.children) {
      if (c <= id || c >= num_nodes) return false;
    }
    for (const VertexId v : n.vertices) {
      if (v >= num_vertices) return false;
    }
  }
  for (uint32_t id = 0; id < num_nodes; ++id) {
    for (const uint32_t c : out->nodes_[id].children) {
      if (out->nodes_[c].parent != id) return false;
    }
  }
  return out->FinishConstruction();
}

}  // namespace rne
