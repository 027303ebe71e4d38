#include "algo/dijkstra.h"

#include <algorithm>

namespace rne {

DijkstraSearch::DijkstraSearch(const Graph& g)
    : g_(g),
      dist_(g.NumVertices(), kInfDistance),
      parent_(g.NumVertices(), kInvalidVertex),
      version_(g.NumVertices(), 0) {}

void DijkstraSearch::BeginSearch(VertexId s, MinQueue& queue) {
  RNE_CHECK(s < g_.NumVertices());
  ++current_version_;
  if (current_version_ == 0) {
    // Version counter wrapped; hard-reset the stamps.
    std::fill(version_.begin(), version_.end(), 0);
    current_version_ = 1;
  }
  Touch(s);
  dist_[s] = 0.0;
  queue.push({0.0, s});
  last_settled_ = 0;
}

double DijkstraSearch::Distance(VertexId s, VertexId t) {
  RNE_CHECK(t < g_.NumVertices());
  if (s == t) return 0.0;
  MinQueue queue;
  BeginSearch(s, queue);
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist_[v]) continue;  // stale queue entry
    ++last_settled_;
    if (v == t) return d;
    for (const Edge& e : g_.Neighbors(v)) {
      Touch(e.to);
      const double nd = d + e.weight;
      if (nd < dist_[e.to]) {
        dist_[e.to] = nd;
        parent_[e.to] = v;
        queue.push({nd, e.to});
      }
    }
  }
  return kInfDistance;
}

std::vector<double> DijkstraSearch::SnapshotDistances() const {
  std::vector<double> out(g_.NumVertices(), kInfDistance);
  for (VertexId v = 0; v < g_.NumVertices(); ++v) {
    if (!Stale(v)) out[v] = dist_[v];
  }
  return out;
}

const std::vector<double>& DijkstraSearch::AllDistances(VertexId s) {
  MinQueue queue;
  BeginSearch(s, queue);
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist_[v]) continue;
    ++last_settled_;
    for (const Edge& e : g_.Neighbors(v)) {
      Touch(e.to);
      const double nd = d + e.weight;
      if (nd < dist_[e.to]) {
        dist_[e.to] = nd;
        parent_[e.to] = v;
        queue.push({nd, e.to});
      }
    }
  }
  dense_ = SnapshotDistances();
  return dense_;
}

std::vector<double> DijkstraSearch::MultiTargetDistances(
    VertexId s, const std::vector<VertexId>& targets) {
  MinQueue queue;
  BeginSearch(s, queue);
  size_t remaining = 0;
  // Mark targets; duplicates are fine (counted once via settled scan below).
  std::vector<char> is_target(g_.NumVertices(), 0);
  for (const VertexId t : targets) {
    RNE_CHECK(t < g_.NumVertices());
    if (!is_target[t]) {
      is_target[t] = 1;
      ++remaining;
    }
  }
  while (!queue.empty() && remaining > 0) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist_[v]) continue;
    ++last_settled_;
    if (is_target[v]) {
      is_target[v] = 0;
      --remaining;
    }
    for (const Edge& e : g_.Neighbors(v)) {
      Touch(e.to);
      const double nd = d + e.weight;
      if (nd < dist_[e.to]) {
        dist_[e.to] = nd;
        parent_[e.to] = v;
        queue.push({nd, e.to});
      }
    }
  }
  std::vector<double> out(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    out[i] = Stale(targets[i]) ? kInfDistance : dist_[targets[i]];
  }
  return out;
}

std::vector<std::pair<VertexId, double>> DijkstraSearch::WithinRadius(
    VertexId s, double radius) {
  MinQueue queue;
  BeginSearch(s, queue);
  std::vector<std::pair<VertexId, double>> out;
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist_[v]) continue;
    if (d > radius) break;
    ++last_settled_;
    out.emplace_back(v, d);
    for (const Edge& e : g_.Neighbors(v)) {
      Touch(e.to);
      const double nd = d + e.weight;
      if (nd < dist_[e.to]) {
        dist_[e.to] = nd;
        parent_[e.to] = v;
        queue.push({nd, e.to});
      }
    }
  }
  return out;
}

std::vector<VertexId> DijkstraSearch::Path(VertexId s, VertexId t) {
  const double d = Distance(s, t);
  if (d == kInfDistance) return {};
  std::vector<VertexId> path;
  for (VertexId v = t;; v = parent_[v]) {
    path.push_back(v);
    if (v == s) break;
    RNE_CHECK(!Stale(v) && parent_[v] != kInvalidVertex);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace rne
