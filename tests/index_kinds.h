// Shared catalogue of persistable index kinds for persistence/robustness
// tests: each entry knows how to build-and-save a small index of its kind
// and how to load one, reporting only the Status. Covers both persisted
// kinds (the RNE model and its quantized form). Used by the parameterized
// envelope sweep (persistence_test.cc), the corruption harness
// (fault_injection_test.cc) and the fuzz seed generator.
#ifndef RNE_TESTS_INDEX_KINDS_H_
#define RNE_TESTS_INDEX_KINDS_H_

#include <functional>
#include <string>
#include <vector>

#include "core/quantized.h"
#include "core/rne.h"
#include "graph/graph.h"
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
  /// a corrupt file — never crash.
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
  };
}

}  // namespace rne

#endif  // RNE_TESTS_INDEX_KINDS_H_
