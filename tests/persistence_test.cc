// The extended Rne APIs (QueryOneToMany / QueryKnn / RefineOnline), plus a
// parameterized envelope-robustness sweep over both persisted index kinds
// and the sectioned-layout contracts of the model file.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algo/distance_sampler.h"
#include "core/rne.h"
#include "graph/generators.h"
#include "index_kinds.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"
#include "util/mmap_file.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace rne {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Graph TestNetwork(uint64_t seed) {
  RoadNetworkConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.seed = seed;
  return MakeRoadNetwork(cfg);
}

// ----------------------------------------------------- extended Rne APIs

class RneApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(TestNetwork(6));
    RneConfig config;
    config.dim = 32;
    config.train.level_samples = 3000;
    config.train.vertex_samples = 20000;
    config.train.finetune_rounds = 1;
    config.train.finetune_samples = 5000;
    model_ = new Rne(Rne::Build(*graph_, config));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete graph_;
  }
  static Graph* graph_;
  static Rne* model_;
};
Graph* RneApiTest::graph_ = nullptr;
Rne* RneApiTest::model_ = nullptr;

TEST_F(RneApiTest, OneToManyMatchesScalarQueries) {
  std::vector<VertexId> targets;
  for (VertexId v = 0; v < graph_->NumVertices(); v += 5) targets.push_back(v);
  std::vector<double> out(targets.size());
  model_->QueryOneToMany(7, targets, out);
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], model_->Query(7, targets[i]));
  }
}

TEST_F(RneApiTest, QueryKnnMatchesBruteForce) {
  std::vector<VertexId> targets;
  for (VertexId v = 0; v < graph_->NumVertices(); v += 3) targets.push_back(v);
  const auto knn = model_->QueryKnn(11, targets, 5);
  ASSERT_EQ(knn.size(), 5u);
  std::vector<double> all;
  for (const VertexId t : targets) all.push_back(model_->Query(11, t));
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_DOUBLE_EQ(knn[i].second, all[i]);
  }
}

TEST_F(RneApiTest, QueryKnnHandlesSmallTargetSets) {
  std::vector<VertexId> two = {1, 2};
  EXPECT_EQ(model_->QueryKnn(0, two, 10).size(), 2u);
  EXPECT_TRUE(model_->QueryKnn(0, two, 0).empty());
}

// ------------------------------------------- envelope sweep, all 7 kinds
//
// Each index kind provides a builder (construct a small index on the given
// graph and Save it) and a loader (Load and report the Status). The sweep
// then exercises the shared envelope guarantees: clean round-trip, rejection
// of legacy unversioned files, of any format version but the current one,
// of files holding a different index kind, of zero-length files, and
// NotFound for missing paths.

class EnvelopeSweepTest : public ::testing::TestWithParam<IndexKindParam> {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(MakeGridNetwork(8, 8));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }
  std::string Path(const std::string& suffix) const {
    return TempPath(std::string("rne_sweep_") + GetParam().name + suffix);
  }
  static Graph* graph_;
};
Graph* EnvelopeSweepTest::graph_ = nullptr;

TEST_P(EnvelopeSweepTest, RoundTripLoadsOk) {
  const std::string path = Path("_rt.bin");
  ASSERT_TRUE(GetParam().build_and_save(*graph_, path).ok());
  const Status st = GetParam().load(path, *graph_);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::filesystem::remove(path);
}

TEST_P(EnvelopeSweepTest, LegacyMagicRejected) {
  const std::string path = Path("_legacy.bin");
  {
    // Pre-envelope files started directly with the index-kind magic.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const uint32_t magic = GetParam().magic;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    const std::vector<uint64_t> filler(16, 0);
    out.write(reinterpret_cast<const char*>(filler.data()),
              sizeof(uint64_t) * filler.size());
  }
  const Status st = GetParam().load(path, *graph_);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("legacy"), std::string::npos) << st.ToString();
  std::filesystem::remove(path);
}

TEST_P(EnvelopeSweepTest, WrongIndexKindRejected) {
  const std::string path = Path("_kind.bin");
  const uint32_t other =
      GetParam().magic == kRneMagic ? kQuantMagic : kRneMagic;
  {
    BinaryWriter w(path, other);
    w.WritePod<uint64_t>(0);
    ASSERT_TRUE(w.Finish().ok());
  }
  const Status st = GetParam().load(path, *graph_);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  std::filesystem::remove(path);
}

TEST_P(EnvelopeSweepTest, ZeroLengthFileRejected) {
  const std::string path = Path("_empty.bin");
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  const Status st = GetParam().load(path, *graph_);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  std::filesystem::remove(path);
}

TEST_P(EnvelopeSweepTest, MissingFileIsNotFound) {
  const Status st = GetParam().load(Path("_does_not_exist.bin"), *graph_);
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
  EXPECT_EQ(
      GetParam().load_mapped(Path("_does_not_exist.bin"), *graph_).code(),
      StatusCode::kNotFound);
}

TEST_P(EnvelopeSweepTest, OtherFormatVersionsRejected) {
  // Only version 2 is readable. A file whose version field says 1 (the old
  // flat layout) or 3 (a newer build) is rejected by every entry point as
  // Corruption naming the version — with a valid header CRC, so it is the
  // version gate and not the checksum that fires.
  const std::string good = Path("_version_good.bin");
  const std::string bad = Path("_version_bad.bin");
  ASSERT_TRUE(GetParam().build_and_save(*graph_, good).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(good, &bytes).ok());
  for (const uint32_t version : {1u, 3u}) {
    SCOPED_TRACE(testing::Message() << "version " << version);
    std::memcpy(bytes.data() + 4, &version, 4);
    const uint32_t header_crc = Crc32c(bytes.data(), 24);
    std::memcpy(bytes.data() + 24, &header_crc, 4);
    ASSERT_TRUE(fault::WriteFileBytes(bad, bytes).ok());
    const std::vector<std::pair<std::string, Status>> results = {
        {"heap load", GetParam().load(bad, *graph_)},
        {"InspectEnvelope", InspectEnvelope(bad).status()},
        {"MappedEnvelope::Open",
         MappedEnvelope::Open(bad, GetParam().magic).status()},
        {"mmap load", GetParam().load_mapped(bad, *graph_)},
    };
    const std::string named =
        "unsupported format version " + std::to_string(version);
    for (const auto& [entry, st] : results) {
      SCOPED_TRACE(entry);
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
      EXPECT_NE(st.message().find(named), std::string::npos) << st.ToString();
    }
  }
  std::filesystem::remove(good);
  std::filesystem::remove(bad);
}

INSTANTIATE_TEST_SUITE_P(AllIndexKinds, EnvelopeSweepTest,
                         ::testing::ValuesIn(AllIndexKinds()),
                         [](const auto& info) { return info.param.name; });

// --------------------------------------------- sectioned-layout contracts

class V2LayoutTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(MakeGridNetwork(8, 8));
    path_ = new std::string(TempPath("rne_v2_layout.bin"));
    ASSERT_TRUE(Rne::Build(*graph_, SmallRneConfig()).Save(*path_).ok());
  }
  static void TearDownTestSuite() {
    std::filesystem::remove(*path_);
    delete path_;
    delete graph_;
  }
  static Graph* graph_;
  static std::string* path_;
};
Graph* V2LayoutTest::graph_ = nullptr;
std::string* V2LayoutTest::path_ = nullptr;

TEST_F(V2LayoutTest, SectionsAreAlignedUniqueAndTileTheFileTail) {
  const auto info = InspectEnvelope(*path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().format_version, kFormatVersion);
  ASSERT_FALSE(info.value().sections.empty());
  const uint64_t file_size = std::filesystem::file_size(*path_);
  uint64_t prev_end = 0;
  std::set<uint32_t> tags;
  for (const SectionInfo& sec : info.value().sections) {
    EXPECT_EQ(sec.offset % kSectionAlignment, 0u) << "tag " << sec.tag;
    EXPECT_GE(sec.offset, prev_end);  // table order = file order
    EXPECT_LE(sec.offset + sec.size, file_size);
    EXPECT_TRUE(tags.insert(sec.tag).second) << "duplicate tag " << sec.tag;
    prev_end = sec.offset + sec.size;
  }
  // Every byte is checksummed: the file ends exactly at the last section.
  EXPECT_EQ(prev_end, file_size);
}

TEST_F(V2LayoutTest, EmbeddingSectionBitFlipRejectedByEveryLoad) {
  // Flip one bit in the middle of each embedding section's data: the
  // metadata stays intact, so only the section checksum can catch it, and
  // both the heap and the mapped load check every section before they
  // return a model.
  const auto info = InspectEnvelope(*path_);
  ASSERT_TRUE(info.ok());
  for (const uint32_t tag : {kSecRneVertexEmb, kSecRneNodeEmb}) {
    SCOPED_TRACE(testing::Message() << "section " << tag);
    const SectionInfo* sec = nullptr;
    for (const SectionInfo& s : info.value().sections) {
      if (s.tag == tag) sec = &s;
    }
    ASSERT_NE(sec, nullptr);
    const std::string bad = TempPath("rne_v2_sectionflip.bin");
    ASSERT_TRUE(
        fault::FlipBitCopy(*path_, bad, sec->offset + sec->size / 2, 5).ok());
    EXPECT_EQ(Rne::Load(bad).status().code(), StatusCode::kCorruption);
    EXPECT_EQ(Rne::Load(bad, LoadMode::kMmap).status().code(),
              StatusCode::kCorruption);
    std::filesystem::remove(bad);
  }
}

// Rewrites the section table of `src` through `mutate` (applied to the
// whole file image), re-seals the table CRC so structural validation — not
// the checksum — is what rejects the file, and writes the result to `dst`.
void PatchTableCopy(const std::string& src, const std::string& dst,
                    const std::function<void(std::vector<uint8_t>*)>& mutate) {
  std::vector<uint8_t> file;
  ASSERT_TRUE(fault::ReadFileBytes(src, &file).ok());
  mutate(&file);
  uint32_t count = 0;
  std::memcpy(&count, file.data() + kEnvelopeHeaderSize, 4);
  const uint64_t entries_at = kEnvelopeHeaderSize + 4;
  const uint64_t entries_bytes = uint64_t{count} * kSectionEntrySize;
  if (entries_at + entries_bytes + 4 <= file.size()) {
    uint32_t crc = Crc32c(file.data() + kEnvelopeHeaderSize, 4);
    crc = Crc32cExtend(crc, file.data() + entries_at, entries_bytes);
    std::memcpy(file.data() + entries_at + entries_bytes, &crc, 4);
  }
  ASSERT_TRUE(fault::WriteFileBytes(dst, file).ok());
}

TEST_F(V2LayoutTest, ZeroSizeSectionEntryRejected) {
  // A zero-size entry passes no data yet hands loaders a degenerate extent
  // whose pointer aliases the next section; the parser must reject it
  // before any typed code sees it (pinned by
  // fuzz/regressions/envelope/zero_size_section.bin).
  const std::string bad = TempPath("rne_v2_zerosize.bin");
  PatchTableCopy(*path_, bad, [](std::vector<uint8_t>* file) {
    const uint64_t size_at = kEnvelopeHeaderSize + 4 + 16;  // entry0.size
    std::memset(file->data() + size_at, 0, 8);
  });
  const auto st = InspectEnvelope(bad).status();
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.ToString().find("zero-size section"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(Rne::Load(bad).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(Rne::Load(bad, LoadMode::kMmap).status().code(),
            StatusCode::kCorruption);
  std::filesystem::remove(bad);
}

TEST_F(V2LayoutTest, HugeSectionCountRejectedBeforeTableAllocation) {
  // count * kSectionEntrySize with count = 0xFFFFFFFF is a 128 GiB table
  // claim; the bound against the actual file size must fire before any
  // allocation or read (pinned by
  // fuzz/regressions/envelope/count_overflow.bin).
  const std::string bad = TempPath("rne_v2_count.bin");
  PatchTableCopy(*path_, bad, [](std::vector<uint8_t>* file) {
    const uint32_t count = 0xFFFFFFFFu;
    std::memcpy(file->data() + kEnvelopeHeaderSize, &count, 4);
  });
  const auto st = InspectEnvelope(bad).status();
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.ToString().find("section count"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(Rne::Load(bad).status().code(), StatusCode::kCorruption);
  std::filesystem::remove(bad);
}

TEST_F(V2LayoutTest, SectionOffsetOverlappingHeaderRejected) {
  // An offset pointing back into the envelope header (or anywhere before
  // the payload end) would alias header/meta bytes as section data; the
  // monotone-extent check must reject it (pinned by
  // fuzz/regressions/envelope/offset_into_header.bin).
  const std::string bad = TempPath("rne_v2_overlap.bin");
  PatchTableCopy(*path_, bad, [](std::vector<uint8_t>* file) {
    const uint64_t offset_at = kEnvelopeHeaderSize + 4 + 8;  // entry0.offset
    const uint64_t offset = 0;  // aligned, but inside the header
    std::memcpy(file->data() + offset_at, &offset, 8);
  });
  const auto st = InspectEnvelope(bad).status();
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.ToString().find("extent out of bounds"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(Rne::Load(bad).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(Rne::Load(bad, LoadMode::kMmap).status().code(),
            StatusCode::kCorruption);
  std::filesystem::remove(bad);
}

TEST_F(V2LayoutTest, MappedAnswersSurviveFileReplacement) {
  // The atomic-save protocol renames a new inode over the path, so an open
  // mapping keeps serving the generation it was opened on — the property
  // RELOAD relies on to swap models without racing in-flight queries.
  const std::string path = TempPath("rne_v2_replace.bin");
  const Rne original = Rne::Build(*graph_, SmallRneConfig());
  ASSERT_TRUE(original.Save(path).ok());
  auto mapped = Rne::Load(path, LoadMode::kMmap);
  ASSERT_TRUE(mapped.ok());
  const double before = mapped.value().Query(1, 17);

  RneConfig other = SmallRneConfig();
  other.train.vertex_samples = 3000;  // different training → different rows
  ASSERT_TRUE(Rne::Build(*graph_, other).Save(path).ok());
  const double after = mapped.value().Query(1, 17);
  EXPECT_EQ(std::memcmp(&before, &after, sizeof(double)), 0)
      << "mapping must pin the old inode across an atomic replace";
  std::filesystem::remove(path);
}

TEST(RneRefineTest, OnlineRefinementReducesError) {
  const Graph g = TestNetwork(7);
  RneConfig config;
  config.dim = 32;
  config.train.level_samples = 3000;
  config.train.vertex_samples = 8000;  // deliberately under-trained
  config.train.vertex_epochs = 2;
  config.fine_tune = false;
  Rne model = Rne::Build(g, config);

  DistanceSampler sampler(g);
  Rng rng(7);
  const auto val = sampler.RandomPairs(400, rng);
  auto err = [&] {
    double sum = 0.0;
    for (const auto& s : val) {
      sum += std::abs(model.Query(s.s, s.t) - s.dist) / s.dist;
    }
    return sum / val.size();
  };
  const double before = err();
  const auto extra = sampler.RandomPairs(20000, rng);
  model.RefineOnline(extra, /*epochs=*/6, /*lr0=*/0.3);
  const double after = err();
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace rne
