#include "baselines/ch.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rne {

namespace {

/// Live overlay graph during contraction: adjacency maps with min-weight
/// semantics, entries to contracted vertices skipped by the callers.
using LiveAdj = std::vector<std::unordered_map<VertexId, double>>;

void AddOrRelax(LiveAdj& adj, VertexId u, VertexId v, double w) {
  auto [it, inserted] = adj[u].try_emplace(v, w);
  if (!inserted && w < it->second) it->second = w;
}

/// Bounded Dijkstra for witness searches over the live graph.
class WitnessSearch {
 public:
  explicit WitnessSearch(size_t n)
      : dist_(n, kInfDistance), version_(n, 0) {}

  /// Shortest u -> w distance avoiding `exclude` and every vertex with
  /// blocked[v] set (contracted vertices, plus the current batch during
  /// parallel contraction), aborting beyond `limit` distance or
  /// `settle_limit` settled vertices. Returns kInfDistance when aborted.
  double Distance(const LiveAdj& adj, const std::vector<char>& blocked,
                  VertexId u, VertexId w, VertexId exclude, double limit,
                  size_t settle_limit) {
    ++version_counter_;
    if (version_counter_ == 0) {
      std::fill(version_.begin(), version_.end(), 0);
      version_counter_ = 1;
    }
    auto touch = [&](VertexId v) {
      if (version_[v] != version_counter_) {
        version_[v] = version_counter_;
        dist_[v] = kInfDistance;
      }
    };
    std::priority_queue<std::pair<double, VertexId>,
                        std::vector<std::pair<double, VertexId>>,
                        std::greater<>>
        queue;
    touch(u);
    dist_[u] = 0.0;
    queue.emplace(0.0, u);
    size_t settled = 0;
    while (!queue.empty()) {
      const auto [d, v] = queue.top();
      queue.pop();
      if (d > dist_[v]) continue;
      if (v == w) return d;
      if (d > limit) return kInfDistance;
      if (++settled > settle_limit) return kInfDistance;
      for (const auto& [to, weight] : adj[v]) {
        if (to == exclude || blocked[to]) continue;
        touch(to);
        const double nd = d + weight;
        if (nd < dist_[to] && nd <= limit) {
          dist_[to] = nd;
          queue.emplace(nd, to);
        }
      }
    }
    return kInfDistance;
  }

 private:
  std::vector<double> dist_;
  std::vector<uint32_t> version_;
  uint32_t version_counter_ = 0;
};

}  // namespace

ContractionHierarchy::ContractionHierarchy(const Graph& g,
                                           const ChOptions& options)
    : options_(options), n_(g.NumVertices()) {
  RNE_CHECK(options_.epsilon >= 0.0);
  for (int side = 0; side < 2; ++side) {
    dist_[side].assign(n_, kInfDistance);
    version_[side].assign(n_, 0);
  }
  Build(g);
}

void ContractionHierarchy::Build(const Graph& g) {
  RNE_SPAN("build.ch");
  LiveAdj live(n_);
  for (VertexId v = 0; v < n_; ++v) {
    for (const Edge& e : g.Neighbors(v)) AddOrRelax(live, v, e.to, e.weight);
  }
  // All edges ever present (original + shortcuts) feed the upward graph.
  struct FullEdge {
    VertexId u, v;
    double w;
    VertexId via;  // contracted middle vertex; kInvalidVertex for originals
  };
  std::vector<FullEdge> all_edges;
  all_edges.reserve(g.NumHalfEdges());
  for (VertexId v = 0; v < n_; ++v) {
    for (const Edge& e : g.Neighbors(v)) {
      if (v < e.to) all_edges.push_back({v, e.to, e.weight, kInvalidVertex});
    }
  }

  std::vector<char> contracted(n_, 0);
  // contracted | current batch: what commit-time witness searches must avoid.
  std::vector<char> blocked(n_, 0);
  std::vector<uint32_t> contracted_neighbors(n_, 0);
  std::vector<uint32_t> level(n_, 0);

  // Independent-set batch contraction (DESIGN.md §14). Workers share nothing
  // but the frozen overlay between barriers; each owns a WitnessSearch slot
  // picked by ThreadPool::CurrentWorkerIndex(). num_threads == 1 runs inline
  // with zero pool overhead and — the schedule being deterministic —
  // produces the bit-identical index.
  const size_t num_threads = ResolveNumThreads(options_.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1 && n_ > 1) {
    pool = std::make_unique<ThreadPool>(num_threads);
  }
  std::vector<std::unique_ptr<WitnessSearch>> scratch(num_threads);
  auto witness_for_worker = [&]() -> WitnessSearch& {
    size_t slot = ThreadPool::CurrentWorkerIndex();
    if (slot == ThreadPool::kNotAWorker) slot = 0;
    if (!scratch[slot]) scratch[slot] = std::make_unique<WitnessSearch>(n_);
    return *scratch[slot];
  };
  auto parallel_for = [&](size_t count,
                          const std::function<void(size_t)>& fn) {
    if (pool) {
      pool->ParallelFor(count, fn);
    } else {
      for (size_t i = 0; i < count; ++i) fn(i);
    }
  };

  // Counts (and optionally collects, when out != nullptr) the shortcuts
  // required to contract v against the `avoid` view of the overlay.
  // Neighbours are visited in ascending id order so witness-search call
  // sequences — and thus settle-limit effects — are reproducible.
  auto simulate = [&](VertexId v, const std::vector<char>& avoid,
                      std::vector<FullEdge>* out) -> int {
    WitnessSearch& witness = witness_for_worker();
    std::vector<std::pair<VertexId, double>> nbrs;
    nbrs.reserve(live[v].size());
    for (const auto& [to, w] : live[v]) {
      if (!contracted[to]) nbrs.emplace_back(to, w);
    }
    std::sort(nbrs.begin(), nbrs.end());
    int shortcuts = 0;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      for (size_t j = i + 1; j < nbrs.size(); ++j) {
        const auto [u, wu] = nbrs[i];
        const auto [w, ww] = nbrs[j];
        const double via = wu + ww;
        const double tolerated = via * (1.0 + options_.epsilon);
        const double witness_dist = witness.Distance(
            live, avoid, u, w, v, tolerated, options_.witness_settle_limit);
        if (witness_dist <= tolerated) continue;  // witness path suffices
        ++shortcuts;
        if (out) out->push_back({u, w, via, v});
      }
    }
    return shortcuts - static_cast<int>(nbrs.size());
  };

  // The priority combines edge difference, contracted-neighbor count, and
  // depth (the `level` term); without the latter two, tie-heavy grid
  // regions contract in a checkerboard pattern whose fill-in densifies the
  // overlay quadratically. Priorities are cached and recomputed only for
  // vertices whose neighbourhood changed since the last round.
  std::vector<double> priority(n_, 0.0);
  std::vector<char> dirty(n_, 1);
  std::vector<VertexId> remaining(n_);
  for (VertexId v = 0; v < n_; ++v) remaining[v] = v;
  std::vector<VertexId> to_rank;
  std::vector<VertexId> batch;
  std::vector<std::vector<FullEdge>> batch_shortcuts;

  rank_.assign(n_, 0);
  uint32_t next_rank = 0;
  size_t rounds = 0;
  while (!remaining.empty()) {
    ++rounds;
    // Rank: refresh stale priorities in parallel over the frozen overlay.
    to_rank.clear();
    for (const VertexId v : remaining) {
      if (dirty[v]) to_rank.push_back(v);
    }
    parallel_for(to_rank.size(), [&](size_t i) {
      const VertexId v = to_rank[i];
      priority[v] = static_cast<double>(simulate(v, contracted, nullptr)) +
                    2.0 * contracted_neighbors[v] + level[v];
      dirty[v] = 0;
    });

    // Select: v joins the batch iff (priority, id) is a strict local
    // minimum over its uncontracted neighbourhood. No two adjacent vertices
    // qualify, and the global minimum always does, so progress is
    // guaranteed and the batch is an independent set.
    batch.clear();
    for (const VertexId v : remaining) {
      bool is_min = true;
      for (const auto& [to, w] : live[v]) {
        (void)w;
        if (contracted[to]) continue;
        if (std::make_pair(priority[to], to) <
            std::make_pair(priority[v], v)) {
          is_min = false;
          break;
        }
      }
      if (is_min) batch.push_back(v);
    }
    for (const VertexId v : batch) blocked[v] = 1;

    // Contract: simulate every batch member concurrently. Witness searches
    // avoid the whole batch (not just the member being contracted) so a
    // witness found here still exists after the barrier commit; a missed
    // witness only adds a redundant shortcut, never breaks exactness.
    batch_shortcuts.assign(batch.size(), {});
    parallel_for(batch.size(), [&](size_t i) {
      simulate(batch[i], blocked, &batch_shortcuts[i]);
    });

    // Commit at the barrier, in deterministic batch order. Batch members
    // are pairwise non-adjacent, so shortcut endpoints are never batch
    // members and intra-batch rank order is immaterial for correctness —
    // but ascending id keeps it reproducible.
    for (size_t i = 0; i < batch.size(); ++i) {
      const VertexId v = batch[i];
      contracted[v] = 1;
      rank_[v] = next_rank++;
      for (const FullEdge& s : batch_shortcuts[i]) {
        AddOrRelax(live, s.u, s.v, s.w);
        AddOrRelax(live, s.v, s.u, s.w);
        all_edges.push_back(s);
        ++num_shortcuts_;
      }
    }
    for (const VertexId v : batch) {
      for (const auto& [to, w] : live[v]) {
        (void)w;
        if (contracted[to]) continue;
        contracted_neighbors[to] += 1;
        level[to] = std::max(level[to], level[v] + 1);
        dirty[to] = 1;
      }
    }
    remaining.erase(std::remove_if(remaining.begin(), remaining.end(),
                                   [&](VertexId v) { return contracted[v]; }),
                    remaining.end());
  }
  RNE_COUNTER_ADD("build.ch.rounds", rounds);
  RNE_COUNTER_ADD("build.ch.shortcuts", num_shortcuts_);

  // Upward CSR: edge (u, v) goes into the adjacency of the lower-ranked
  // endpoint, pointing at the higher-ranked one. Keep min weight per pair.
  std::sort(all_edges.begin(), all_edges.end(), [&](const FullEdge& a,
                                                    const FullEdge& b) {
    const VertexId alo = rank_[a.u] < rank_[a.v] ? a.u : a.v;
    const VertexId ahi = alo == a.u ? a.v : a.u;
    const VertexId blo = rank_[b.u] < rank_[b.v] ? b.u : b.v;
    const VertexId bhi = blo == b.u ? b.v : b.u;
    if (alo != blo) return alo < blo;
    if (ahi != bhi) return ahi < bhi;
    if (a.w != b.w) return a.w < b.w;
    return a.via < b.via;  // total order: dedup keeps a deterministic edge
  });
  up_offsets_.assign(n_ + 1, 0);
  std::vector<UpEdge> edges;
  edges.reserve(all_edges.size());
  VertexId prev_lo = kInvalidVertex, prev_hi = kInvalidVertex;
  for (const FullEdge& e : all_edges) {
    const VertexId lo = rank_[e.u] < rank_[e.v] ? e.u : e.v;
    const VertexId hi = lo == e.u ? e.v : e.u;
    if (lo == prev_lo && hi == prev_hi) continue;  // duplicate, larger weight
    prev_lo = lo;
    prev_hi = hi;
    edges.push_back({hi, e.w, e.via});
    up_offsets_[lo + 1] += 1;
  }
  // `edges` is grouped by lo already (sort order), so a prefix sum finishes
  // the CSR.
  for (size_t i = 1; i <= n_; ++i) up_offsets_[i] += up_offsets_[i - 1];
  up_edges_ = std::move(edges);
}

double ContractionHierarchy::Query(VertexId s, VertexId t) {
  RNE_CHECK(s < n_ && t < n_);
  if (s == t) return 0.0;
  ++current_version_;
  if (current_version_ == 0) {
    for (int side = 0; side < 2; ++side) {
      std::fill(version_[side].begin(), version_[side].end(), 0);
    }
    current_version_ = 1;
  }
  last_settled_ = 0;
  auto touch = [&](int side, VertexId v) {
    if (version_[side][v] != current_version_) {
      version_[side][v] = current_version_;
      dist_[side][v] = kInfDistance;
    }
  };

  using PqEntry = std::pair<double, VertexId>;
  std::priority_queue<PqEntry, std::vector<PqEntry>, std::greater<>> queue[2];
  touch(0, s);
  touch(1, t);
  dist_[0][s] = 0.0;
  dist_[1][t] = 0.0;
  queue[0].emplace(0.0, s);
  queue[1].emplace(0.0, t);
  double best = kInfDistance;

  for (int side = 0; !queue[0].empty() || !queue[1].empty();
       side = 1 - side) {
    if (queue[side].empty()) side = 1 - side;
    const auto [d, v] = queue[side].top();
    if (d >= best) {
      // This direction can no longer improve; drain the other one.
      std::priority_queue<PqEntry, std::vector<PqEntry>, std::greater<>>
          empty_queue;
      queue[side].swap(empty_queue);
      continue;
    }
    queue[side].pop();
    if (d > dist_[side][v]) continue;
    ++last_settled_;
    touch(1 - side, v);
    if (dist_[1 - side][v] != kInfDistance) {
      best = std::min(best, d + dist_[1 - side][v]);
    }
    for (uint32_t i = up_offsets_[v]; i < up_offsets_[v + 1]; ++i) {
      const UpEdge& e = up_edges_[i];
      touch(side, e.to);
      const double nd = d + e.weight;
      if (nd < dist_[side][e.to]) {
        dist_[side][e.to] = nd;
        queue[side].emplace(nd, e.to);
      }
    }
  }
  return best;
}

const ContractionHierarchy::UpEdge* ContractionHierarchy::FindUpEdge(
    VertexId u, VertexId v) const {
  const VertexId lo = rank_[u] < rank_[v] ? u : v;
  const VertexId hi = lo == u ? v : u;
  for (uint32_t i = up_offsets_[lo]; i < up_offsets_[lo + 1]; ++i) {
    if (up_edges_[i].to == hi) return &up_edges_[i];
  }
  return nullptr;
}

void ContractionHierarchy::UnpackEdge(VertexId u, VertexId v,
                                      std::vector<VertexId>* out) const {
  const UpEdge* edge = FindUpEdge(u, v);
  RNE_CHECK_MSG(edge != nullptr, "path hop without a stored up-edge");
  if (edge->via == kInvalidVertex) {
    out->push_back(v);
    return;
  }
  UnpackEdge(u, edge->via, out);
  UnpackEdge(edge->via, v, out);
}

std::vector<VertexId> ContractionHierarchy::Path(VertexId s, VertexId t) {
  RNE_CHECK(s < n_ && t < n_);
  if (s == t) return {s};
  // Bidirectional upward search with parent tracking (separate from the
  // distance-only Query to keep that hot path lean).
  std::vector<double> dist[2];
  std::vector<VertexId> parent[2];
  for (int side = 0; side < 2; ++side) {
    dist[side].assign(n_, kInfDistance);
    parent[side].assign(n_, kInvalidVertex);
  }
  using PqEntry = std::pair<double, VertexId>;
  std::priority_queue<PqEntry, std::vector<PqEntry>, std::greater<>> queue[2];
  dist[0][s] = 0.0;
  dist[1][t] = 0.0;
  queue[0].emplace(0.0, s);
  queue[1].emplace(0.0, t);
  double best = kInfDistance;
  VertexId meet = kInvalidVertex;
  for (int side = 0; !queue[0].empty() || !queue[1].empty();
       side = 1 - side) {
    if (queue[side].empty()) side = 1 - side;
    const auto [d, v] = queue[side].top();
    if (d >= best) {
      std::priority_queue<PqEntry, std::vector<PqEntry>, std::greater<>>
          empty_queue;
      queue[side].swap(empty_queue);
      continue;
    }
    queue[side].pop();
    if (d > dist[side][v]) continue;
    if (dist[1 - side][v] != kInfDistance &&
        d + dist[1 - side][v] < best) {
      best = d + dist[1 - side][v];
      meet = v;
    }
    for (uint32_t i = up_offsets_[v]; i < up_offsets_[v + 1]; ++i) {
      const UpEdge& e = up_edges_[i];
      const double nd = d + e.weight;
      if (nd < dist[side][e.to]) {
        dist[side][e.to] = nd;
        parent[side][e.to] = v;
        queue[side].emplace(nd, e.to);
      }
    }
  }
  if (meet == kInvalidVertex) return {};

  // Up-graph hop sequences s -> meet and meet -> t.
  std::vector<VertexId> forward;
  for (VertexId v = meet; v != kInvalidVertex; v = parent[0][v]) {
    forward.push_back(v);
  }
  std::reverse(forward.begin(), forward.end());  // s ... meet
  std::vector<VertexId> backward;
  for (VertexId v = meet; v != kInvalidVertex; v = parent[1][v]) {
    backward.push_back(v);  // meet ... t
  }

  // Unpack every hop into original vertices.
  std::vector<VertexId> path = {s};
  for (size_t i = 1; i < forward.size(); ++i) {
    UnpackEdge(forward[i - 1], forward[i], &path);
  }
  for (size_t i = 1; i < backward.size(); ++i) {
    UnpackEdge(backward[i - 1], backward[i], &path);
  }
  return path;
}

size_t ContractionHierarchy::IndexBytes() const {
  return up_offsets_.size() * sizeof(uint32_t) +
         up_edges_.size() * sizeof(UpEdge) + rank_.size() * sizeof(uint32_t);
}

}  // namespace rne
