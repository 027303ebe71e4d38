#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "graph/graph_builder.h"
#include "util/rng.h"

namespace rne {

namespace {

double Length(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// Generates jittered grid coordinates for rows x cols vertices.
std::vector<Point> GridCoords(size_t rows, size_t cols, double spacing,
                              double coord_noise, Rng& rng) {
  std::vector<Point> coords(rows * cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const double nx = rng.UniformReal(-coord_noise, coord_noise) * spacing;
      const double ny = rng.UniformReal(-coord_noise, coord_noise) * spacing;
      coords[r * cols + c] = {static_cast<double>(c) * spacing + nx,
                              static_cast<double>(r) * spacing + ny};
    }
  }
  return coords;
}

/// Union-find for connectivity restoration.
class DisjointSet {
 public:
  explicit DisjointSet(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

Graph MakeGridNetwork(size_t rows, size_t cols, double spacing,
                      double weight_jitter, double coord_noise,
                      uint64_t seed) {
  RNE_CHECK(rows >= 2 && cols >= 2);
  Rng rng(seed);
  GraphBuilder builder(rows * cols);
  const auto coords = GridCoords(rows, cols, spacing, coord_noise, rng);
  for (size_t i = 0; i < coords.size(); ++i) {
    builder.SetCoord(static_cast<VertexId>(i), coords[i]);
  }
  auto add = [&](size_t a, size_t b) {
    const double len = Length(coords[a], coords[b]);
    const double w = len * (1.0 + rng.UniformReal(0.0, weight_jitter));
    builder.AddEdge(static_cast<VertexId>(a), static_cast<VertexId>(b), w);
  };
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const size_t v = r * cols + c;
      if (c + 1 < cols) add(v, v + 1);
      if (r + 1 < rows) add(v, v + cols);
    }
  }
  return builder.Build();
}

Graph MakeRoadNetwork(const RoadNetworkConfig& cfg) {
  RNE_CHECK(cfg.rows >= 4 && cfg.cols >= 4);
  Rng rng(cfg.seed);
  const size_t n = cfg.rows * cfg.cols;
  GraphBuilder builder(n);
  const auto coords =
      GridCoords(cfg.rows, cfg.cols, cfg.spacing, cfg.coord_noise, rng);
  for (size_t i = 0; i < n; ++i) {
    builder.SetCoord(static_cast<VertexId>(i), coords[i]);
  }

  auto jittered = [&](size_t a, size_t b) {
    return Length(coords[a], coords[b]) *
           (1.0 + rng.UniformReal(0.0, cfg.weight_jitter));
  };

  // Grid edges, each surviving with probability 1 - removal_fraction.
  // Removed edges are remembered so connectivity can be restored.
  struct Candidate {
    size_t a;
    size_t b;
  };
  std::vector<Candidate> removed;
  DisjointSet dsu(n);
  for (size_t r = 0; r < cfg.rows; ++r) {
    for (size_t c = 0; c < cfg.cols; ++c) {
      const size_t v = r * cfg.cols + c;
      const size_t right = c + 1 < cfg.cols ? v + 1 : n;
      const size_t down = r + 1 < cfg.rows ? v + cfg.cols : n;
      for (const size_t u : {right, down}) {
        if (u >= n) continue;
        if (rng.Bernoulli(cfg.removal_fraction)) {
          removed.push_back({v, u});
        } else {
          builder.AddEdge(static_cast<VertexId>(v), static_cast<VertexId>(u),
                          jittered(v, u));
          dsu.Union(v, u);
        }
      }
    }
  }
  // Restore connectivity: re-add removed edges that join different components.
  rng.Shuffle(removed);
  for (const Candidate& cand : removed) {
    if (dsu.Union(cand.a, cand.b)) {
      builder.AddEdge(static_cast<VertexId>(cand.a),
                      static_cast<VertexId>(cand.b), jittered(cand.a, cand.b));
    }
  }

  // Diagonal streets inside random cells.
  for (size_t r = 0; r + 1 < cfg.rows; ++r) {
    for (size_t c = 0; c + 1 < cfg.cols; ++c) {
      if (!rng.Bernoulli(cfg.diagonal_fraction)) continue;
      const size_t v = r * cfg.cols + c;
      if (rng.Bernoulli(0.5)) {
        builder.AddEdge(static_cast<VertexId>(v),
                        static_cast<VertexId>(v + cfg.cols + 1),
                        jittered(v, v + cfg.cols + 1));
      } else {
        builder.AddEdge(static_cast<VertexId>(v + 1),
                        static_cast<VertexId>(v + cfg.cols),
                        jittered(v + 1, v + cfg.cols));
      }
    }
  }

  // Highways: straight polylines across the grid that hop `stride` cells per
  // segment with near-straight-line weight, modeling fast arterial roads.
  for (size_t h = 0; h < cfg.num_highways; ++h) {
    const bool horizontal = rng.Bernoulli(0.5);
    const size_t stride = 2 + rng.UniformIndex(3);
    if (horizontal) {
      const size_t r = rng.UniformIndex(cfg.rows);
      for (size_t c = 0; c + stride < cfg.cols; c += stride) {
        const size_t a = r * cfg.cols + c;
        const size_t b = r * cfg.cols + c + stride;
        builder.AddEdge(static_cast<VertexId>(a), static_cast<VertexId>(b),
                        Length(coords[a], coords[b]) * 1.02);
      }
    } else {
      const size_t c = rng.UniformIndex(cfg.cols);
      for (size_t r = 0; r + stride < cfg.rows; r += stride) {
        const size_t a = r * cfg.cols + c;
        const size_t b = (r + stride) * cfg.cols + c;
        builder.AddEdge(static_cast<VertexId>(a), static_cast<VertexId>(b),
                        Length(coords[a], coords[b]) * 1.02);
      }
    }
  }

  Graph g = builder.Build();
  RNE_CHECK_MSG(g.IsConnected(), "road network generator must stay connected");
  return g;
}

Graph MakeRandomGeometricNetwork(size_t n, size_t k, double extent,
                                 double weight_jitter, uint64_t seed) {
  RNE_CHECK(n >= 2 && k >= 1);
  Rng rng(seed);
  std::vector<Point> pts(n);
  for (auto& p : pts) {
    p = {rng.UniformReal(0.0, extent), rng.UniformReal(0.0, extent)};
  }
  GraphBuilder builder(n);
  for (size_t i = 0; i < n; ++i) {
    builder.SetCoord(static_cast<VertexId>(i), pts[i]);
  }

  // k-nearest-neighbor edges via brute force (generator is offline tooling).
  std::vector<std::pair<double, size_t>> dists(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      dists[j] = {i == j ? kInfDistance : Length(pts[i], pts[j]), j};
    }
    const size_t kk = std::min(k, n - 1);
    std::partial_sort(dists.begin(), dists.begin() + static_cast<long>(kk),
                      dists.end());
    for (size_t t = 0; t < kk; ++t) {
      const double w =
          dists[t].first * (1.0 + rng.UniformReal(0.0, weight_jitter));
      builder.AddEdge(static_cast<VertexId>(i),
                      static_cast<VertexId>(dists[t].second), w);
    }
  }
  return LargestConnectedComponent(builder.Build()).first;
}

std::pair<Graph, std::vector<VertexId>> LargestConnectedComponent(
    const Graph& g) {
  const size_t n = g.NumVertices();
  std::vector<uint32_t> comp(n, kInvalidVertex);
  uint32_t num_comps = 0;
  std::vector<size_t> comp_size;
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < n; ++s) {
    if (comp[s] != kInvalidVertex) continue;
    comp[s] = num_comps;
    size_t size = 1;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (const Edge& e : g.Neighbors(v)) {
        if (comp[e.to] == kInvalidVertex) {
          comp[e.to] = num_comps;
          ++size;
          stack.push_back(e.to);
        }
      }
    }
    comp_size.push_back(size);
    ++num_comps;
  }
  const uint32_t best = static_cast<uint32_t>(std::distance(
      comp_size.begin(), std::max_element(comp_size.begin(), comp_size.end())));

  std::vector<VertexId> to_parent;
  to_parent.reserve(comp_size[best]);
  std::vector<VertexId> to_child(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    if (comp[v] == best) {
      to_child[v] = static_cast<VertexId>(to_parent.size());
      to_parent.push_back(v);
    }
  }
  GraphBuilder builder(to_parent.size());
  for (VertexId nv = 0; nv < to_parent.size(); ++nv) {
    const VertexId old = to_parent[nv];
    builder.SetCoord(nv, g.Coord(old));
    for (const Edge& e : g.Neighbors(old)) {
      if (to_child[e.to] != kInvalidVertex && old < e.to) {
        builder.AddEdge(nv, to_child[e.to], e.weight);
      }
    }
  }
  return {builder.Build(), std::move(to_parent)};
}

}  // namespace rne
