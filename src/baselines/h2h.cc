#include "baselines/h2h.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <unordered_map>

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace rne {

namespace {
struct BagEntry {
  VertexId to;
  double weight;
};
}  // namespace

H2HIndex::H2HIndex(const Graph& g, const H2HOptions& options)
    : n_(g.NumVertices()) {
  Build(g, options);
}

void H2HIndex::Build(const Graph& g, const H2HOptions& options) {
  RNE_SPAN("build.h2h");
  // --- 1. Minimum-degree elimination with fill-in shortcuts. ---
  std::vector<std::unordered_map<VertexId, double>> live(n_);
  for (VertexId v = 0; v < n_; ++v) {
    for (const Edge& e : g.Neighbors(v)) {
      auto [it, inserted] = live[v].try_emplace(e.to, e.weight);
      if (!inserted && e.weight < it->second) it->second = e.weight;
    }
  }
  std::vector<char> eliminated(n_, 0);
  std::vector<uint32_t> elim_rank(n_, 0);
  std::vector<std::vector<BagEntry>> bag(n_);

  using PqEntry = std::pair<uint32_t, VertexId>;  // (degree, vertex)
  std::priority_queue<PqEntry, std::vector<PqEntry>, std::greater<>> pq;
  for (VertexId v = 0; v < n_; ++v) {
    pq.emplace(static_cast<uint32_t>(live[v].size()), v);
  }
  uint32_t next_rank = 0;
  while (!pq.empty()) {
    const auto [deg, v] = pq.top();
    pq.pop();
    if (eliminated[v]) continue;
    if (deg != live[v].size()) {  // stale degree, reinsert
      pq.emplace(static_cast<uint32_t>(live[v].size()), v);
      continue;
    }
    eliminated[v] = 1;
    elim_rank[v] = next_rank++;
    bag[v].reserve(live[v].size());
    for (const auto& [u, w] : live[v]) bag[v].push_back({u, w});
    max_bag_size_ = std::max(max_bag_size_, bag[v].size() + 1);
    // Fill-in among bag members.
    for (size_t i = 0; i < bag[v].size(); ++i) {
      for (size_t j = i + 1; j < bag[v].size(); ++j) {
        const VertexId a = bag[v][i].to, b = bag[v][j].to;
        const double w = bag[v][i].weight + bag[v][j].weight;
        auto [it, inserted] = live[a].try_emplace(b, w);
        if (!inserted && w < it->second) it->second = w;
        auto [it2, inserted2] = live[b].try_emplace(a, w);
        if (!inserted2 && w < it2->second) it2->second = w;
      }
      live[bag[v][i].to].erase(v);
    }
    live[v].clear();
    // Degrees of bag members changed; lazy reinsertion.
    for (const BagEntry& e : bag[v]) {
      pq.emplace(static_cast<uint32_t>(live[e.to].size()), e.to);
    }
  }

  // --- 2. Elimination tree: parent = bag member eliminated first. ---
  parent_.assign(n_, kInvalidVertex);
  for (VertexId v = 0; v < n_; ++v) {
    uint32_t best_rank = UINT32_MAX;
    for (const BagEntry& e : bag[v]) {
      RNE_CHECK(elim_rank[e.to] > elim_rank[v]);
      if (elim_rank[e.to] < best_rank) {
        best_rank = elim_rank[e.to];
        parent_[v] = e.to;
      }
    }
  }
  std::vector<std::vector<VertexId>> children(n_);
  std::vector<VertexId> roots;
  for (VertexId v = 0; v < n_; ++v) {
    if (parent_[v] == kInvalidVertex) {
      roots.push_back(v);
    } else {
      children[parent_[v]].push_back(v);
    }
  }

  // --- 3. Top-down labeling over DFS with an explicit root-path stack,
  // parallel across independent subtrees. A serial DFS labels the upper
  // tree; a node whose subtree is small enough becomes a task that labels
  // its subtree on the pool, seeded with a snapshot of the ancestor path.
  // A vertex's label depends only on its ancestors' labels (all finished
  // before the task starts) and is accumulated in fixed bag order, so the
  // labels are bitwise identical for every thread count.
  depth_.assign(n_, 0);
  root_of_.assign(n_, kInvalidVertex);
  label_.assign(n_, {});
  pos_.assign(n_, {});

  const size_t num_threads = ResolveNumThreads(options.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1 && n_ > 1) {
    pool = std::make_unique<ThreadPool>(num_threads);
  }

  // Subtree sizes: children are eliminated before their parent, so one pass
  // in elimination order accumulates bottom-up.
  std::vector<VertexId> by_rank(n_);
  for (VertexId v = 0; v < n_; ++v) by_rank[elim_rank[v]] = v;
  std::vector<uint32_t> subtree_size(n_, 0);
  for (const VertexId v : by_rank) {
    subtree_size[v] += 1;
    if (parent_[v] != kInvalidVertex) {
      subtree_size[parent_[v]] += subtree_size[v];
    }
  }
  const size_t task_cutoff =
      pool ? std::max<size_t>(256, n_ / (8 * num_threads)) : 0;

  struct Task {
    VertexId root;             // subtree root to label
    VertexId component_root;   // root_of_ value for the whole subtree
    std::vector<VertexId> ancestors;  // path[d] = ancestor at depth d
  };
  std::vector<Task> tasks;

  auto label_vertex = [&](VertexId v, const std::vector<VertexId>& path,
                          VertexId component_root) {
    root_of_[v] = component_root;
    depth_[v] = static_cast<uint32_t>(path.size());
    label_[v].assign(depth_[v] + 1, kInfDistance);
    label_[v][depth_[v]] = 0.0;
    for (uint32_t i = 0; i < depth_[v]; ++i) {
      double best = kInfDistance;
      for (const BagEntry& e : bag[v]) {
        // d(x, anc@i): x and anc@i are both on v's root path; take the
        // label stored at the shallower of the two.
        const double dx = depth_[e.to] >= i ? label_[e.to][i]
                                            : label_[path[i]][depth_[e.to]];
        if (dx != kInfDistance && e.weight + dx < best) {
          best = e.weight + dx;
        }
      }
      label_[v][i] = best;
    }
    pos_[v].reserve(bag[v].size() + 1);
    for (const BagEntry& e : bag[v]) pos_[v].push_back(depth_[e.to]);
    pos_[v].push_back(depth_[v]);
  };

  // Iterative DFS carrying (vertex, resume-state). With `spawn_tasks`,
  // small-enough subtrees are deferred to the pool instead of descended.
  struct Frame {
    VertexId v;
    size_t child_idx;
  };
  auto dfs_label = [&](VertexId start, VertexId component_root,
                       std::vector<VertexId>& path, bool spawn_tasks,
                       size_t& height) {
    std::vector<Frame> stack;
    stack.push_back({start, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const VertexId v = frame.v;
      if (frame.child_idx == 0) {
        if (spawn_tasks && subtree_size[v] <= task_cutoff) {
          tasks.push_back({v, component_root, path});
          stack.pop_back();
          continue;
        }
        label_vertex(v, path, component_root);
        height = std::max<size_t>(height, depth_[v] + 1);
        path.push_back(v);
      }
      if (frame.child_idx < children[v].size()) {
        const VertexId c = children[v][frame.child_idx++];
        stack.push_back({c, 0});
      } else {
        path.pop_back();
        stack.pop_back();
      }
    }
  };

  {
    RNE_SPAN("build.h2h.label");
    std::vector<VertexId> path;  // path[d] = ancestor at depth d
    for (const VertexId root : roots) {
      dfs_label(root, root, path, /*spawn_tasks=*/pool != nullptr,
                tree_height_);
    }
    if (pool) {
      std::vector<size_t> task_height(tasks.size(), 0);
      pool->ParallelFor(tasks.size(), [&](size_t i) {
        std::vector<VertexId> task_path = tasks[i].ancestors;
        dfs_label(tasks[i].root, tasks[i].component_root, task_path,
                  /*spawn_tasks=*/false, task_height[i]);
      });
      for (const size_t h : task_height) {
        tree_height_ = std::max(tree_height_, h);
      }
      RNE_COUNTER_ADD("build.h2h.label_tasks", tasks.size());
    }
  }

  // --- 4. Binary-lifting LCA table: level k reads only level k - 1, so
  // each level fills in parallel between barriers. ---
  RNE_SPAN("build.h2h.lift");
  size_t log = 1;
  while ((size_t{1} << log) < std::max<size_t>(tree_height_, 2)) ++log;
  up_.assign(log, std::vector<uint32_t>(n_));
  for (VertexId v = 0; v < n_; ++v) {
    up_[0][v] = parent_[v] == kInvalidVertex ? v : parent_[v];
  }
  for (size_t k = 1; k < log; ++k) {
    if (pool) {
      pool->ParallelFor(
          n_, [&](size_t v) { up_[k][v] = up_[k - 1][up_[k - 1][v]]; });
    } else {
      for (VertexId v = 0; v < n_; ++v) up_[k][v] = up_[k - 1][up_[k - 1][v]];
    }
  }
}

VertexId H2HIndex::Lca(VertexId u, VertexId v) const {
  if (depth_[u] < depth_[v]) std::swap(u, v);
  uint32_t diff = depth_[u] - depth_[v];
  for (size_t k = 0; diff != 0; ++k, diff >>= 1) {
    if (diff & 1) u = up_[k][u];
  }
  if (u == v) return u;
  for (size_t k = up_.size(); k-- > 0;) {
    if (up_[k][u] != up_[k][v]) {
      u = up_[k][u];
      v = up_[k][v];
    }
  }
  return parent_[u] == kInvalidVertex ? u : parent_[u];
}

double H2HIndex::Distance(VertexId s, VertexId t) const {
  RNE_CHECK(s < n_ && t < n_);
  if (s == t) return 0.0;
  if (root_of_[s] != root_of_[t]) return kInfDistance;  // different components
  const VertexId x = Lca(s, t);
  if (x == s) return label_[t][depth_[s]];
  if (x == t) return label_[s][depth_[t]];
  double best = kInfDistance;
  for (const uint32_t i : pos_[x]) {
    const double d = label_[s][i] + label_[t][i];
    if (d < best) best = d;
  }
  return best;
}

size_t H2HIndex::IndexBytes() const {
  size_t bytes = parent_.size() * sizeof(uint32_t) +
                 depth_.size() * sizeof(uint32_t);
  for (const auto& l : label_) bytes += l.size() * sizeof(double);
  for (const auto& p : pos_) bytes += p.size() * sizeof(uint32_t);
  for (const auto& u : up_) bytes += u.size() * sizeof(uint32_t);
  return bytes;
}

}  // namespace rne
