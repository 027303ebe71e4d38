// Shared catalogue of persistable index kinds for persistence/robustness
// tests: each entry knows how to build-and-save a small index of its kind
// and how to load one, reporting only the Status. Covers all seven index
// kinds. Used by the parameterized envelope sweep (persistence_test.cc), the
// corruption harness (fault_injection_test.cc) and the fuzz seed generator.
#ifndef RNE_TESTS_INDEX_KINDS_H_
#define RNE_TESTS_INDEX_KINDS_H_

#include <functional>
#include <string>
#include <vector>

#include "baselines/alt.h"
#include "baselines/ch.h"
#include "baselines/gtree.h"
#include "baselines/h2h.h"
#include "core/quantized.h"
#include "core/rne.h"
#include "graph/graph.h"
#include "partition/hierarchy.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace rne {

struct IndexKindParam {
  const char* name;
  uint32_t magic;
  std::function<Status(const Graph&, const std::string&)> build_and_save;
  std::function<Status(const std::string&, const Graph&)> load;
  /// Zero-copy load in the given mode (kMmap or kMmapCold) followed by full
  /// lazy-section verification, collapsed to one Status: either the
  /// open-time structural checks or the deferred checksum pass must reject
  /// a corrupt file — never crash. Null for kinds without a zero-copy load
  /// path.
  std::function<Status(const std::string&, const Graph&, LoadMode)>
      load_mapped;
};

inline RneConfig SmallRneConfig() {
  RneConfig config;
  config.dim = 8;
  config.train.level_samples = 500;
  config.train.vertex_samples = 2000;
  config.fine_tune = false;
  return config;
}

inline std::vector<IndexKindParam> AllIndexKinds() {
  return {
      {"Rne", kRneMagic,
       [](const Graph& g, const std::string& path) {
         return Rne::Build(g, SmallRneConfig()).Save(path);
       },
       [](const std::string& path, const Graph&) {
         return Rne::Load(path).status();
       },
       [](const std::string& path, const Graph&, LoadMode mode) {
         auto model = Rne::Load(path, mode);
         if (!model.ok()) return model.status();
         return model.value().VerifyMapped();
       }},
      {"QuantizedRne", kQuantMagic,
       [](const Graph& g, const std::string& path) {
         return QuantizedRne(Rne::Build(g, SmallRneConfig())).Save(path);
       },
       [](const std::string& path, const Graph&) {
         return QuantizedRne::Load(path).status();
       },
       [](const std::string& path, const Graph&, LoadMode mode) {
         auto model = QuantizedRne::Load(path, mode);
         if (!model.ok()) return model.status();
         return model.value().VerifyMapped();
       }},
      {"ContractionHierarchy", kChMagic,
       [](const Graph& g, const std::string& path) {
         return ContractionHierarchy(g).Save(path);
       },
       [](const std::string& path, const Graph&) {
         return ContractionHierarchy::Load(path).status();
       },
       nullptr},
      {"H2HIndex", kH2hMagic,
       [](const Graph& g, const std::string& path) {
         return H2HIndex(g).Save(path);
       },
       [](const std::string& path, const Graph&) {
         return H2HIndex::Load(path).status();
       },
       nullptr},
      {"AltIndex", kAltMagic,
       [](const Graph& g, const std::string& path) {
         Rng rng(11);
         return AltIndex(g, 4, rng).Save(path);
       },
       [](const std::string& path, const Graph& g) {
         return AltIndex::Load(path, g).status();
       },
       nullptr},
      {"GTree", kGTreeMagic,
       [](const Graph& g, const std::string& path) {
         GTreeOptions options;
         options.fanout = 4;
         options.leaf_size = 8;
         return GTree(g, options).Save(path);
       },
       [](const std::string& path, const Graph& g) {
         return GTree::Load(path, g).status();
       },
       [](const std::string& path, const Graph& g, LoadMode mode) {
         auto tree = GTree::Load(path, g, mode);
         if (!tree.ok()) return tree.status();
         return tree.value().VerifyMapped();
       }},
      {"PartitionHierarchy", kHierarchyMagic,
       [](const Graph& g, const std::string& path) {
         HierarchyOptions options;
         options.leaf_threshold = 8;
         return PartitionHierarchy::Build(g, options).Save(path);
       },
       [](const std::string& path, const Graph&) {
         return PartitionHierarchy::Load(path).status();
       },
       nullptr},
  };
}

}  // namespace rne

#endif  // RNE_TESTS_INDEX_KINDS_H_
