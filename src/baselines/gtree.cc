#include "baselines/gtree.h"

#include <algorithm>
#include <queue>

#include "algo/dijkstra.h"
#include "graph/subgraph.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace rne {

uint32_t GTree::IndexOf(const std::vector<VertexId>& list, VertexId v) {
  for (uint32_t i = 0; i < list.size(); ++i) {
    if (list[i] == v) return i;
  }
  return UINT32_MAX;
}

GTree::GTree(const Graph& g, const GTreeOptions& options) : g_(&g) {
  RNE_SPAN("build.gtree");
  HierarchyOptions hopt;
  hopt.fanout = options.fanout;
  hopt.leaf_threshold = options.leaf_size;
  hopt.partition.seed = options.seed;
  hopt.partition.num_threads = options.num_threads;
  hier_ = std::make_unique<PartitionHierarchy>(
      PartitionHierarchy::Build(g, hopt));
  nodes_.resize(hier_->num_nodes());

  // Position of each vertex in its leaf's vertex list.
  vertex_pos_in_leaf_.assign(g.NumVertices(), UINT32_MAX);
  for (uint32_t id = 0; id < hier_->num_nodes(); ++id) {
    const auto& node = hier_->node(id);
    if (!node.IsLeaf()) continue;
    for (uint32_t i = 0; i < node.vertices.size(); ++i) {
      vertex_pos_in_leaf_[node.vertices[i]] = i;
    }
  }

  ComputeBorders(g);
  ComputeMatrices(g, options);

  // Default: every vertex is a target.
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    if (hier_->node(id).IsLeaf()) {
      nodes_[id].targets = hier_->node(id).vertices;
    }
  }
}

void GTree::ComputeBorders(const Graph& g) {
  // Membership test per node via each vertex's ancestor path: vertex v is in
  // node n iff n is on v's root path. Borders of n = vertices in n with an
  // edge to a vertex outside n.
  // Compute per node with a membership bitmap over its vertex set.
  std::vector<char> in_node(g.NumVertices(), 0);
  for (uint32_t id = 0; id < hier_->num_nodes(); ++id) {
    const auto& node = hier_->node(id);
    if (id == hier_->root()) continue;  // the root has no borders
    for (const VertexId v : node.vertices) in_node[v] = 1;
    for (const VertexId v : node.vertices) {
      for (const Edge& e : g.Neighbors(v)) {
        if (!in_node[e.to]) {
          nodes_[id].borders.push_back(v);
          break;
        }
      }
    }
    for (const VertexId v : node.vertices) in_node[v] = 0;
  }
  // Root: treat every child border as the root's junction below.

  // Junction U(n) = union of children borders; border_in_junction maps B(n)
  // into U(n).
  for (uint32_t id = 0; id < hier_->num_nodes(); ++id) {
    const auto& node = hier_->node(id);
    if (node.IsLeaf()) continue;
    NodeData& data = nodes_[id];
    for (const uint32_t c : node.children) {
      for (const VertexId b : nodes_[c].borders) {
        if (IndexOf(data.junction, b) == UINT32_MAX) {
          data.junction.push_back(b);
        }
      }
    }
    data.border_in_junction.resize(data.borders.size());
    for (uint32_t i = 0; i < data.borders.size(); ++i) {
      data.border_in_junction[i] = IndexOf(data.junction, data.borders[i]);
      RNE_CHECK_MSG(data.border_in_junction[i] != UINT32_MAX,
                    "node border missing from junction union");
    }
    data.child_border_in_junction.resize(node.children.size());
    for (size_t c = 0; c < node.children.size(); ++c) {
      const auto& child_borders = nodes_[node.children[c]].borders;
      data.child_border_in_junction[c].resize(child_borders.size());
      for (uint32_t i = 0; i < child_borders.size(); ++i) {
        data.child_border_in_junction[c][i] =
            IndexOf(data.junction, child_borders[i]);
        RNE_CHECK(data.child_border_in_junction[c][i] != UINT32_MAX);
      }
    }
  }
}

void GTree::ComputeMatrices(const Graph& g, const GTreeOptions& options) {
  RNE_SPAN("build.gtree.matrices");
  // Distinct leaf-border sources; every matrix entry is d(b, x) for some
  // leaf border b, so one SSSP per source covers everything.
  std::vector<VertexId> sources;
  std::vector<char> is_source(g.NumVertices(), 0);
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    if (!hier_->node(id).IsLeaf()) continue;
    for (const VertexId b : nodes_[id].borders) {
      if (!is_source[b]) {
        is_source[b] = 1;
        sources.push_back(b);
      }
    }
  }
  num_leaf_borders_ = sources.size();

  // Allocate all matrices as one pool (concatenated in node-id order) so a
  // save can emit them as a single mmap-servable section; each node's
  // span views its slice.
  std::vector<uint64_t> lens(nodes_.size(), 0);
  std::vector<uint64_t> offsets(nodes_.size(), 0);
  uint64_t total = 0;
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    const auto& node = hier_->node(id);
    const NodeData& data = nodes_[id];
    lens[id] = node.IsLeaf()
                   ? data.borders.size() * node.vertices.size()
                   : data.junction.size() * data.junction.size();
    offsets[id] = total;
    total += lens[id];
  }
  matrix_pool_.assign(total, kInfDistance);
  BindMatrixSpans(matrix_pool_.data(), lens);

  // For each source b: fill (a) the leaf row of b's leaf, and (b) the
  // junction rows of every ancestor whose junction contains b. Writes go
  // through the pool (the node spans are read-only views of it).
  auto fill_from_source = [&](DijkstraSearch& search, VertexId b) {
    const auto& dist = search.AllDistances(b);
    const uint32_t leaf = hier_->LeafOf(b);
    {
      const auto& node = hier_->node(leaf);
      const NodeData& data = nodes_[leaf];
      double* matrix = matrix_pool_.data() + offsets[leaf];
      const uint32_t row = IndexOf(data.borders, b);
      if (row != UINT32_MAX) {
        for (uint32_t i = 0; i < node.vertices.size(); ++i) {
          matrix[row * node.vertices.size() + i] = dist[node.vertices[i]];
        }
      }
    }
    for (uint32_t id = hier_->node(leaf).parent; id != UINT32_MAX;
         id = hier_->node(id).parent) {
      const NodeData& data = nodes_[id];
      double* matrix = matrix_pool_.data() + offsets[id];
      const uint32_t row = IndexOf(data.junction, b);
      if (row == UINT32_MAX) continue;
      for (uint32_t i = 0; i < data.junction.size(); ++i) {
        matrix[row * data.junction.size() + i] = dist[data.junction[i]];
      }
      if (id == hier_->root()) break;
    }
  };

  // 0 = hardware through the same resolution helper as every builder; the
  // cutoff keeps tiny builds off the pool (the result is identical either
  // way, since each source fills only its own rows).
  const size_t num_threads = ResolveNumThreads(options.num_threads);
  if (num_threads == 1 || sources.size() < options.parallel_source_cutoff) {
    DijkstraSearch search(g);
    // rne-lint: allow(serial-build-loop) single-thread fallback of the
    // sharded parallel fill below.
    for (const VertexId b : sources) fill_from_source(search, b);
    return;
  }
  // Writes are disjoint per source row except when a border belongs to
  // several ancestors — rows are still keyed by the source, so each source
  // writes only its own rows. Parallel over sources.
  ThreadPool pool(num_threads);
  const size_t shards = pool.num_threads();
  for (size_t shard = 0; shard < shards; ++shard) {
    pool.Submit([&, shard] {
      DijkstraSearch search(g);
      for (size_t i = shard; i < sources.size(); i += shards) {
        fill_from_source(search, sources[i]);
      }
    });
  }
  pool.Wait();
}

double GTree::LeafLocalDistance(uint32_t leaf, VertexId s, VertexId t) const {
  // Dijkstra restricted to the leaf's induced subgraph.
  const auto& vertices = hier_->node(leaf).vertices;
  const uint32_t ls = IndexInLeaf(s);
  const uint32_t lt = IndexInLeaf(t);
  std::vector<double> dist(vertices.size(), kInfDistance);
  std::priority_queue<std::pair<double, uint32_t>,
                      std::vector<std::pair<double, uint32_t>>, std::greater<>>
      queue;
  dist[ls] = 0.0;
  queue.emplace(0.0, ls);
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist[v]) continue;
    if (v == lt) return d;
    for (const Edge& e : g_->Neighbors(vertices[v])) {
      const uint32_t pos = vertex_pos_in_leaf_[e.to];
      // Same-leaf check: position valid and the leaf matches.
      if (hier_->LeafOf(e.to) != leaf) continue;
      const double nd = d + e.weight;
      if (nd < dist[pos]) {
        dist[pos] = nd;
        queue.emplace(nd, pos);
      }
    }
  }
  return kInfDistance;
}

std::vector<std::vector<double>> GTree::ClimbFrom(VertexId s) const {
  // out[0] = d(s, B(leaf)), out[i] = d(s, B(ancestor_i)) bottom-up.
  std::vector<std::vector<double>> out;
  const uint32_t leaf = hier_->LeafOf(s);
  const NodeData& leaf_data = nodes_[leaf];
  const size_t leaf_size = hier_->node(leaf).vertices.size();
  std::vector<double> current(leaf_data.borders.size());
  const uint32_t pos = IndexInLeaf(s);
  for (uint32_t i = 0; i < leaf_data.borders.size(); ++i) {
    current[i] = leaf_data.matrix[i * leaf_size + pos];
  }
  out.push_back(current);

  uint32_t node = leaf;
  while (hier_->node(node).parent != UINT32_MAX) {
    const uint32_t parent = hier_->node(node).parent;
    const NodeData& pdata = nodes_[parent];
    if (parent == hier_->root()) break;  // root has no borders
    const size_t u = pdata.junction.size();
    const auto& jmap =
        pdata.child_border_in_junction[ChildSlot(parent, node)];
    std::vector<double> next(pdata.borders.size(), kInfDistance);
    // d(s, b') = min over child borders b of d(s, b) + M_parent[b][b'].
    for (uint32_t i = 0; i < nodes_[node].borders.size(); ++i) {
      const double ds = out.back()[i];
      if (ds == kInfDistance) continue;
      const uint32_t row = jmap[i];
      for (uint32_t j = 0; j < pdata.borders.size(); ++j) {
        const double m =
            pdata.matrix[row * u + pdata.border_in_junction[j]];
        if (ds + m < next[j]) next[j] = ds + m;
      }
    }
    out.push_back(std::move(next));
    node = parent;
  }
  return out;
}

size_t GTree::ChildSlot(uint32_t parent, uint32_t child) const {
  const auto& children = hier_->node(parent).children;
  for (size_t i = 0; i < children.size(); ++i) {
    if (children[i] == child) return i;
  }
  RNE_CHECK_MSG(false, "child not found under parent");
  return 0;
}

double GTree::Distance(VertexId s, VertexId t) {
  RNE_CHECK(s < g_->NumVertices() && t < g_->NumVertices());
  // Cold-mapped trees verify deferred section checksums before the first
  // matrix access; throws CorruptionError on a bad file.
  if (mapping_ != nullptr) mapping_->EnsureAllVerifiedOrThrow();
  if (s == t) return 0.0;
  const uint32_t leaf_s = hier_->LeafOf(s);
  const uint32_t leaf_t = hier_->LeafOf(t);
  if (leaf_s == leaf_t) {
    double best = LeafLocalDistance(leaf_s, s, t);
    // The shortest path may leave the leaf: combine border-to-vertex rows.
    const NodeData& data = nodes_[leaf_s];
    const size_t leaf_size = hier_->node(leaf_s).vertices.size();
    const uint32_t ps = IndexInLeaf(s);
    const uint32_t pt = IndexInLeaf(t);
    for (uint32_t i = 0; i < data.borders.size(); ++i) {
      const double via =
          data.matrix[i * leaf_size + ps] + data.matrix[i * leaf_size + pt];
      if (via < best) best = via;
    }
    return best;
  }

  // Find the LCA of the two leaves and the children of the LCA holding s, t.
  const auto& anc_s = hier_->AncestorsOf(s);
  const auto& anc_t = hier_->AncestorsOf(t);
  size_t common = 0;
  while (common < anc_s.size() && common < anc_t.size() &&
         anc_s[common] == anc_t[common]) {
    ++common;
  }
  // LCA = last common ancestor (or root). cs/ct = next nodes on each path.
  const uint32_t lca = common == 0 ? hier_->root() : anc_s[common - 1];
  const uint32_t cs = anc_s[common];
  const uint32_t ct = anc_t[common];

  // Climb both sides to the LCA children.
  const auto climb_s = ClimbFrom(s);
  const auto climb_t = ClimbFrom(t);
  // climb[i] corresponds to the node at ancestor index (size-1-i)... the
  // vectors run leaf -> up; find the positions for cs/ct: the ancestor path
  // of s is anc_s[0..k-1] top-down with anc_s[k-1] = leaf; cs = anc_s[common]
  // sits (anc_s.size()-1 - common) levels above the leaf.
  const size_t idx_s = anc_s.size() - 1 - common;
  const size_t idx_t = anc_t.size() - 1 - common;
  RNE_CHECK(idx_s < climb_s.size() && idx_t < climb_t.size());
  const std::vector<double>& ds = climb_s[idx_s];
  const std::vector<double>& dt = climb_t[idx_t];

  const NodeData& lca_data = nodes_[lca];
  const size_t u = lca_data.junction.size();
  double best = kInfDistance;
  // Join through the LCA junction matrix.
  const auto& rows = lca_data.child_border_in_junction[ChildSlot(lca, cs)];
  const auto& cols = lca_data.child_border_in_junction[ChildSlot(lca, ct)];
  for (uint32_t i = 0; i < rows.size(); ++i) {
    if (ds[i] == kInfDistance) continue;
    const double* row = lca_data.matrix.data() + rows[i] * u;
    for (uint32_t j = 0; j < cols.size(); ++j) {
      if (dt[j] == kInfDistance) continue;
      const double candidate = ds[i] + row[cols[j]] + dt[j];
      if (candidate < best) best = candidate;
    }
  }
  return best;
}

void GTree::SetTargets(const std::vector<VertexId>& targets) {
  for (NodeData& data : nodes_) data.targets.clear();
  for (const VertexId v : targets) {
    RNE_CHECK(v < g_->NumVertices());
    nodes_[hier_->LeafOf(v)].targets.push_back(v);
  }
}

std::vector<std::pair<VertexId, double>> GTree::Knn(VertexId s, size_t k) {
  return BestFirst(s, k, kInfDistance);
}

std::vector<VertexId> GTree::Range(VertexId s, double tau) {
  std::vector<VertexId> out;
  for (const auto& [v, d] : BestFirst(s, g_->NumVertices(), tau)) {
    out.push_back(v);
  }
  return out;
}

std::vector<std::pair<VertexId, double>> GTree::BestFirst(VertexId s, size_t k,
                                                          double tau) {
  std::vector<std::pair<VertexId, double>> result;
  if (k == 0) return result;
  if (mapping_ != nullptr) mapping_->EnsureAllVerifiedOrThrow();

  // d(s, B(n)) for ancestors of s, used to seed the off-path subtrees.
  const auto climb = ClimbFrom(s);
  const auto& anc = hier_->AncestorsOf(s);

  struct Entry {
    double key;
    uint32_t id;       // node id or vertex id
    bool is_vertex;
    // Border distances d(s, B(node)) for node entries.
    std::shared_ptr<std::vector<double>> border_dist;
    bool operator>(const Entry& o) const { return key > o.key; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;

  auto min_of = [](const std::vector<double>& v) {
    double m = kInfDistance;
    for (const double x : v) m = std::min(m, x);
    return m;
  };

  // Seed: s's own leaf via local expansion + borders, and every sibling
  // subtree hanging off the ancestor path.
  const uint32_t leaf_s = hier_->LeafOf(s);
  {
    // Candidate targets inside s's leaf, distances via min(local, border).
    const NodeData& data = nodes_[leaf_s];
    const size_t leaf_size = hier_->node(leaf_s).vertices.size();
    const uint32_t ps = IndexInLeaf(s);
    for (const VertexId t : data.targets) {
      double d;
      if (t == s) {
        d = 0.0;
      } else {
        d = LeafLocalDistance(leaf_s, s, t);
        const uint32_t pt = IndexInLeaf(t);
        for (uint32_t i = 0; i < data.borders.size(); ++i) {
          const double via = data.matrix[i * leaf_size + ps] +
                             data.matrix[i * leaf_size + pt];
          if (via < d) d = via;
        }
      }
      if (d != kInfDistance) queue.push({d, t, true, nullptr});
    }
  }
  // Off-path subtrees: for each ancestor a (from leaf upward), its parent's
  // other children. d(s, B(sibling)) = min over b in B(a) of
  // d(s,b) + M_parent[b][b'].
  for (size_t i = 0; i < anc.size(); ++i) {
    const uint32_t node = anc[anc.size() - 1 - i];  // bottom-up
    const uint32_t parent =
        node == anc[0] ? hier_->root() : anc[anc.size() - 2 - i];
    const NodeData& pdata = nodes_[parent];
    const size_t u = pdata.junction.size();
    const std::vector<double>& ds = climb[i];
    const auto& row_map =
        pdata.child_border_in_junction[ChildSlot(parent, node)];
    const auto& children = hier_->node(parent).children;
    for (size_t slot = 0; slot < children.size(); ++slot) {
      const uint32_t sibling = children[slot];
      if (sibling == node) continue;
      const NodeData& sdata = nodes_[sibling];
      const auto& col_map = pdata.child_border_in_junction[slot];
      auto border_dist = std::make_shared<std::vector<double>>(
          sdata.borders.size(), kInfDistance);
      for (uint32_t bi = 0; bi < nodes_[node].borders.size(); ++bi) {
        if (ds[bi] == kInfDistance) continue;
        const double* row = pdata.matrix.data() + row_map[bi] * u;
        for (uint32_t bj = 0; bj < sdata.borders.size(); ++bj) {
          const double cand = ds[bi] + row[col_map[bj]];
          if (cand < (*border_dist)[bj]) (*border_dist)[bj] = cand;
        }
      }
      const double bound = min_of(*border_dist);
      if (bound != kInfDistance) {
        queue.push({bound, sibling, false, std::move(border_dist)});
      }
    }
  }

  // Best-first expansion; keys are admissible bounds, so once the minimum
  // exceeds tau no further target can qualify.
  while (!queue.empty() && result.size() < k) {
    if (queue.top().key > tau) break;
    const Entry e = queue.top();
    queue.pop();
    if (e.is_vertex) {
      result.emplace_back(static_cast<VertexId>(e.id), e.key);
      continue;
    }
    const auto& node = hier_->node(e.id);
    const NodeData& data = nodes_[e.id];
    if (node.IsLeaf()) {
      const size_t leaf_size = node.vertices.size();
      for (const VertexId t : data.targets) {
        const uint32_t pt = IndexInLeaf(t);
        double d = kInfDistance;
        for (uint32_t i = 0; i < data.borders.size(); ++i) {
          const double cand =
              (*e.border_dist)[i] + data.matrix[i * leaf_size + pt];
          if (cand < d) d = cand;
        }
        if (d != kInfDistance) queue.push({d, t, true, nullptr});
      }
      continue;
    }
    const size_t u = data.junction.size();
    for (size_t slot = 0; slot < node.children.size(); ++slot) {
      const uint32_t child = node.children[slot];
      const NodeData& cdata = nodes_[child];
      const auto& col_map = data.child_border_in_junction[slot];
      auto border_dist = std::make_shared<std::vector<double>>(
          cdata.borders.size(), kInfDistance);
      for (uint32_t bi = 0; bi < data.borders.size(); ++bi) {
        if ((*e.border_dist)[bi] == kInfDistance) continue;
        const double* row =
            data.matrix.data() + data.border_in_junction[bi] * u;
        for (uint32_t bj = 0; bj < cdata.borders.size(); ++bj) {
          const double cand = (*e.border_dist)[bi] + row[col_map[bj]];
          if (cand < (*border_dist)[bj]) (*border_dist)[bj] = cand;
        }
      }
      const double bound = min_of(*border_dist);
      if (bound != kInfDistance) {
        queue.push({bound, child, false, std::move(border_dist)});
      }
    }
  }
  return result;
}

Status GTree::Save(const std::string& path) const {
  BinaryWriter w(path, kGTreeMagic);
  if (!w.ok()) return Status::IoError("cannot open " + path + ".tmp");
  uint64_t total = 0;
  for (const NodeData& data : nodes_) total += data.matrix.size();
  const double* pool =
      matrix_pool_.empty() ? pool_view_ : matrix_pool_.data();
  // All node matrices, concatenated in node-id order, in one aligned
  // lazy-verify section; the meta stream keeps only per-node lengths.
  w.AddSection(kSecGTreeMatrixPool, pool, total * sizeof(double),
               kSectionFlagLazyVerify);
  hier_->WriteTo(w);
  w.WritePod<uint64_t>(num_leaf_borders_);
  w.WriteVector(vertex_pos_in_leaf_);
  w.WritePod<uint64_t>(nodes_.size());
  for (const NodeData& data : nodes_) {
    w.WriteVector(data.borders);
    w.WriteVector(data.junction);
    w.WritePod<uint64_t>(data.matrix.size());
    w.WriteVector(data.border_in_junction);
    w.WritePod<uint64_t>(data.child_border_in_junction.size());
    for (const auto& child : data.child_border_in_junction) {
      w.WriteVector(child);
    }
    w.WriteVector(data.targets);
  }
  return w.Finish();
}

Status GTree::ParseMeta(BinaryReader& r, const std::string& path,
                        std::vector<uint64_t>* matrix_lens) {
  hier_ = std::make_unique<PartitionHierarchy>();
  if (!PartitionHierarchy::ReadFrom(r, hier_.get())) {
    return r.ReadError("corrupt G-tree index " + path);
  }
  uint64_t num_borders = 0, num_nodes = 0;
  if (!r.ReadPod(&num_borders) || !r.ReadVector(&vertex_pos_in_leaf_) ||
      !r.ReadPod(&num_nodes)) {
    return r.ReadError("corrupt G-tree index " + path);
  }
  // Every serialized node holds at least five 8-byte length prefixes plus a
  // child count (48 bytes), so a corrupt node count fails here before a huge
  // resize.
  if (num_nodes > r.remaining() / 48) {
    return Status::Corruption("inconsistent G-tree index " + path);
  }
  // Per-node lengths must tile the CRC-protected matrix section exactly,
  // which bounds them before any allocation. An absent section is an empty
  // pool (a tree whose matrices are all empty writes no section); every
  // per-node length must then be 0.
  const SectionInfo* sec = r.FindSection(kSecGTreeMatrixPool);
  if (sec != nullptr && sec->size % sizeof(double) != 0) {
    return Status::Corruption("inconsistent G-tree index " + path);
  }
  const uint64_t pool_doubles = sec == nullptr ? 0 : sec->size / sizeof(double);
  num_leaf_borders_ = num_borders;
  nodes_.resize(num_nodes);
  uint64_t total = 0;
  for (NodeData& data : nodes_) {
    uint64_t len = 0, num_children = 0;
    if (!r.ReadVector(&data.borders) || !r.ReadVector(&data.junction) ||
        !r.ReadPod(&len) || len > pool_doubles - total) {
      return r.ReadError("corrupt G-tree index " + path);
    }
    matrix_lens->push_back(len);
    total += len;
    if (!r.ReadVector(&data.border_in_junction) || !r.ReadPod(&num_children)) {
      return r.ReadError("corrupt G-tree index " + path);
    }
    if (num_children > r.remaining() / 8) {
      return Status::Corruption("inconsistent G-tree index " + path);
    }
    data.child_border_in_junction.resize(num_children);
    for (auto& child : data.child_border_in_junction) {
      if (!r.ReadVector(&child)) {
        return r.ReadError("corrupt G-tree index " + path);
      }
    }
    if (!r.ReadVector(&data.targets)) {
      return r.ReadError("corrupt G-tree index " + path);
    }
  }
  if (total != pool_doubles) {
    return Status::Corruption("inconsistent G-tree index " + path);
  }
  return Status::Ok();
}

void GTree::BindMatrixSpans(const double* pool,
                            const std::vector<uint64_t>& matrix_lens) {
  RNE_DCHECK(matrix_lens.size() == nodes_.size());
  uint64_t offset = 0;
  for (size_t id = 0; id < nodes_.size(); ++id) {
    nodes_[id].matrix =
        std::span<const double>(pool + offset, matrix_lens[id]);
    offset += matrix_lens[id];
  }
}

StatusOr<GTree> GTree::Load(const std::string& path, const Graph& g,
                            LoadMode mode) {
  if (mode != LoadMode::kHeap) {
    auto opened = MappedEnvelope::Open(path, kGTreeMagic, mode);
    if (!opened.ok()) return opened.status();
    std::shared_ptr<const MappedEnvelope> env = std::move(opened).value();
    BinaryReader r(env->file().data(), env->file().size(), path, kGTreeMagic);
    if (!r.ok()) return r.status();
    GTree tree;
    tree.g_ = &g;
    std::vector<uint64_t> lens;
    RNE_RETURN_IF_ERROR(tree.ParseMeta(r, path, &lens));
    RNE_RETURN_IF_ERROR(r.Finish());
    tree.pool_view_ =
        reinterpret_cast<const double*>(env->SectionData(kSecGTreeMatrixPool));
    tree.BindMatrixSpans(tree.pool_view_, lens);
    tree.mapping_ = std::move(env);
    RNE_RETURN_IF_ERROR(tree.CheckConsistent(path, g));
    return tree;
  }

  BinaryReader r(path, kGTreeMagic);
  if (!r.ok()) return r.status();
  GTree tree;
  tree.g_ = &g;
  std::vector<uint64_t> lens;
  RNE_RETURN_IF_ERROR(tree.ParseMeta(r, path, &lens));
  RNE_RETURN_IF_ERROR(r.Finish());
  uint64_t total = 0;
  for (const uint64_t len : lens) total += len;
  tree.matrix_pool_.resize(total);
  if (total > 0) {
    RNE_RETURN_IF_ERROR(r.ReadSectionInto(kSecGTreeMatrixPool,
                                          tree.matrix_pool_.data(),
                                          total * sizeof(double)));
  }
  tree.BindMatrixSpans(tree.matrix_pool_.data(), lens);
  RNE_RETURN_IF_ERROR(tree.CheckConsistent(path, g));
  return tree;
}

Status GTree::CheckConsistent(const std::string& path, const Graph& g) const {
  if (hier_->num_vertices() != g.NumVertices() ||
      nodes_.size() != hier_->num_nodes()) {
    return Status::Corruption("G-tree index does not match graph: " + path);
  }
  return Status::Ok();
}

size_t GTree::IndexBytes() const {
  size_t bytes = vertex_pos_in_leaf_.size() * sizeof(uint32_t);
  for (const NodeData& data : nodes_) {
    bytes += data.borders.size() * sizeof(VertexId) +
             data.junction.size() * sizeof(VertexId) +
             data.matrix.size() * sizeof(double) +
             data.border_in_junction.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace rne
