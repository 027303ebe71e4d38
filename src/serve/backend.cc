#include "serve/backend.h"

#include <algorithm>
#include <set>

#include "algo/dijkstra.h"
#include "baselines/gtree.h"
#include "baselines/h2h.h"
#include "core/quantized.h"
#include "core/rne.h"
#include "core/rne_index.h"
#include "util/annotations.h"

namespace rne::serve {
namespace {

Status RequireGraph(const BackendContext& ctx, const char* name) {
  if (ctx.graph == nullptr) {
    return Status::InvalidArgument(std::string(name) +
                                   " backend requires a graph");
  }
  return Status::Ok();
}

/// Learned RNE model: the serving matrix is immutable after load, so
/// queries are lock-free shared reads. kNN goes through the embedding-space
/// tree index (also const).
class RneBackend : public QueryBackend {
 public:
  /// Owns a freshly loaded model. `num_workers` parallelizes the kNN-index
  /// build (query serving itself is unaffected).
  explicit RneBackend(Rne model, size_t num_workers = 1)
      : owned_model_(std::make_unique<Rne>(std::move(model))),
        owned_index_(
            std::make_unique<RneIndex>(owned_model_.get(), num_workers)),
        model_(owned_model_.get()),
        index_(owned_index_.get()) {}
  /// Borrows a caller-owned model (must outlive the backend).
  explicit RneBackend(const Rne* model, size_t num_workers = 1)
      : owned_index_(std::make_unique<RneIndex>(model, num_workers)),
        model_(model),
        index_(owned_index_.get()) {}
  /// Borrows a caller-owned model and its index (both must outlive the
  /// backend).
  RneBackend(const Rne* model, const RneIndex* index)
      : model_(model), index_(index) {}

  std::string Name() const override { return "rne"; }
  bool IsExact() const override { return false; }
  size_t NumVertices() const override { return model_->NumVertices(); }
  size_t IndexBytes() const override { return model_->IndexBytes(); }
  double Distance(VertexId s, VertexId t) override {
    return model_->Query(s, t);
  }
  bool SupportsKnn() const override { return true; }
  std::vector<std::pair<VertexId, double>> Knn(VertexId s,
                                               size_t k) override {
    return index_->Knn(s, k);
  }

 private:
  std::unique_ptr<Rne> owned_model_;         // null when borrowing
  std::unique_ptr<RneIndex> owned_index_;    // null when borrowing
  const Rne* model_;
  const RneIndex* index_;
};

/// 8-bit quantized RNE matrix; const lookups, shared lock-free.
class QuantizedRneBackend : public QueryBackend {
 public:
  explicit QuantizedRneBackend(QuantizedRne model)
      : model_(std::move(model)) {}

  std::string Name() const override { return "rne-quantized"; }
  bool IsExact() const override { return false; }
  size_t NumVertices() const override { return model_.NumVertices(); }
  size_t IndexBytes() const override { return model_.IndexBytes(); }
  double Distance(VertexId s, VertexId t) override {
    return model_.Query(s, t);
  }

 private:
  QuantizedRne model_;
};

/// Exact H2H hop labels: Distance() only reads the labels and the LCA
/// table, so queries are lock-free shared reads.
class H2HBackend : public QueryBackend {
 public:
  explicit H2HBackend(const Graph& g) : index_(g) {}

  std::string Name() const override { return index_.Name(); }
  bool IsExact() const override { return true; }
  size_t NumVertices() const override { return index_.num_vertices(); }
  size_t IndexBytes() const override { return index_.IndexBytes(); }
  double Distance(VertexId s, VertexId t) override {
    return index_.Distance(s, t);
  }

 private:
  const H2HIndex index_;
};

/// Exact Dijkstra over a mutex-guarded free list of reusable workspaces:
/// each call takes one (building a new one when every workspace is in use)
/// and hands it back on return, so the list grows to the peak number of
/// concurrent callers — pool workers or not — and no caller queues behind
/// another's search.
class DijkstraBackend : public QueryBackend {
 public:
  explicit DijkstraBackend(const Graph& g) : graph_(g) {}

  std::string Name() const override { return "dijkstra"; }
  bool IsExact() const override { return true; }
  size_t NumVertices() const override { return graph_.NumVertices(); }
  size_t IndexBytes() const override { return 0; }

  double Distance(VertexId s, VertexId t) override {
    Spare spare(this);
    return spare.search->Distance(s, t);
  }

  bool SupportsKnn() const override { return true; }
  std::vector<std::pair<VertexId, double>> Knn(VertexId s,
                                               size_t k) override {
    Spare spare(this);
    return KnnWith(*spare.search, s, k);
  }

 private:
  /// A workspace held for one call: taken from the free list (or built when
  /// every spare is in use) and handed back on scope exit.
  struct Spare {
    explicit Spare(DijkstraBackend* owner) : owner(owner) {
      {
        MutexLock lock(&owner->spares_mu_);
        if (!owner->spares_.empty()) {
          search = std::move(owner->spares_.back());
          owner->spares_.pop_back();
        }
      }
      if (search == nullptr) {
        search = std::make_unique<DijkstraSearch>(owner->graph_);
      }
    }
    ~Spare() {
      MutexLock lock(&owner->spares_mu_);
      owner->spares_.push_back(std::move(search));
    }
    Spare(const Spare&) = delete;
    Spare& operator=(const Spare&) = delete;

    DijkstraBackend* owner;
    std::unique_ptr<DijkstraSearch> search;
  };

  static std::vector<std::pair<VertexId, double>> KnnWith(DijkstraSearch& dij,
                                                          VertexId s,
                                                          size_t k) {
    const std::vector<double>& dist = dij.AllDistances(s);
    std::vector<std::pair<double, VertexId>> order;
    order.reserve(dist.size());
    for (VertexId v = 0; v < dist.size(); ++v) {
      if (dist[v] != kInfDistance) order.emplace_back(dist[v], v);
    }
    const size_t take = std::min(k, order.size());
    std::partial_sort(order.begin(), order.begin() + take, order.end());
    std::vector<std::pair<VertexId, double>> out;
    out.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out.emplace_back(order[i].second, order[i].first);
    }
    return out;
  }

  const Graph& graph_;
  Mutex spares_mu_;
  std::vector<std::unique_ptr<DijkstraSearch>> spares_
      RNE_GUARDED_BY(spares_mu_);
};

/// Exact G-tree: Distance() and Knn() reuse the tree's internal search
/// state, so one mutex serializes every call. Parallelism is sacrificed;
/// use shared-read backends on hot chains.
class GTreeBackend : public QueryBackend {
 public:
  GTreeBackend(const Graph& g, const GTreeOptions& options)
      : tree_(g, options), num_vertices_(g.NumVertices()) {}

  std::string Name() const override {
    MutexLock lock(&mu_);
    return tree_.Name();
  }
  bool IsExact() const override { return true; }
  size_t NumVertices() const override { return num_vertices_; }
  size_t IndexBytes() const override {
    MutexLock lock(&mu_);
    return tree_.IndexBytes();
  }
  double Distance(VertexId s, VertexId t) override {
    MutexLock lock(&mu_);
    return tree_.Distance(s, t);
  }
  bool SupportsKnn() const override { return true; }
  std::vector<std::pair<VertexId, double>> Knn(VertexId s,
                                               size_t k) override {
    MutexLock lock(&mu_);
    return tree_.Knn(s, k);
  }

 private:
  mutable Mutex mu_;
  GTree tree_ RNE_GUARDED_BY(mu_);
  const size_t num_vertices_;
};

using Made = StatusOr<std::unique_ptr<QueryBackend>>;

Made MakeRne(const BackendContext& ctx) {
  auto model = Rne::Load(ctx.model_path, ctx.load);
  if (!model.ok()) return model.status();
  return std::unique_ptr<QueryBackend>(
      new RneBackend(std::move(model).value(), ctx.num_workers));
}

Made MakeQuantizedRne(const BackendContext& ctx) {
  auto model = QuantizedRne::Load(ctx.model_path, ctx.load);
  if (!model.ok()) return model.status();
  return std::unique_ptr<QueryBackend>(
      new QuantizedRneBackend(std::move(model).value()));
}

Made MakeDijkstra(const BackendContext& ctx) {
  RNE_RETURN_IF_ERROR(RequireGraph(ctx, "dijkstra"));
  return std::unique_ptr<QueryBackend>(new DijkstraBackend(*ctx.graph));
}

Made MakeH2H(const BackendContext& ctx) {
  RNE_RETURN_IF_ERROR(RequireGraph(ctx, "h2h"));
  return std::unique_ptr<QueryBackend>(new H2HBackend(*ctx.graph));
}

Made MakeGTree(const BackendContext& ctx) {
  RNE_RETURN_IF_ERROR(RequireGraph(ctx, "gtree"));
  GTreeOptions options;
  options.seed = ctx.seed;
  return std::unique_ptr<QueryBackend>(new GTreeBackend(*ctx.graph, options));
}

/// The built-in backends, sorted by name.
constexpr struct {
  std::string_view name;
  Made (*make)(const BackendContext&);
} kBuiltins[] = {
    {"dijkstra", MakeDijkstra},
    {"gtree", MakeGTree},
    {"h2h", MakeH2H},
    {"rne", MakeRne},
    {"rne-quantized", MakeQuantizedRne},
};

}  // namespace

StatusOr<std::unique_ptr<QueryBackend>> MakeBackend(const std::string& name,
                                                    const BackendContext& ctx) {
  for (const auto& builtin : kBuiltins) {
    if (builtin.name == name) return builtin.make(ctx);
  }
  return Status::NotFound("no backend named '" + name + "'");
}

std::unique_ptr<QueryBackend> MakeSharedModelBackend(const Rne& model) {
  return std::make_unique<RneBackend>(&model);
}

std::unique_ptr<QueryBackend> MakeSharedModelBackend(const Rne& model,
                                                     const RneIndex& index) {
  return std::make_unique<RneBackend>(&model, &index);
}

std::string_view InternBackendName(std::string_view name) {
  static Mutex mu;
  // Never destroyed: views into it may be read during static destruction.
  static auto* const names = new std::set<std::string, std::less<>>();
  MutexLock lock(&mu);
  auto it = names->find(name);
  if (it == names->end()) it = names->emplace(name).first;
  return *it;
}

std::vector<std::string> RegisteredBackendNames() {
  std::vector<std::string> names;
  for (const auto& builtin : kBuiltins) names.emplace_back(builtin.name);
  return names;
}

}  // namespace rne::serve
