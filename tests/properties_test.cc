// Cross-cutting property tests: metric-space invariants of the served RNE
// model, estimator sanity under degenerate inputs, disconnected-graph
// behaviour of every method, loader robustness against malformed files, and
// envelope-format properties (section-table fuzz, sectionless layout).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "baselines/alt.h"
#include "baselines/ch.h"
#include "baselines/gtree.h"
#include "baselines/h2h.h"
#include "core/rne.h"
#include "core/spatial_grid.h"
#include "graph/dimacs.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/mmap_file.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace rne {
namespace {

// ------------------------------------------- RNE metric-space invariants

class RneMetricProperties : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RoadNetworkConfig cfg;
    cfg.rows = 14;
    cfg.cols = 14;
    cfg.seed = 31;
    graph_ = new Graph(MakeRoadNetwork(cfg));
    RneConfig config;
    config.dim = 32;
    config.train.level_samples = 3000;
    config.train.vertex_samples = 20000;
    config.train.finetune_rounds = 0;
    model_ = new Rne(Rne::Build(*graph_, config));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete graph_;
  }
  static Graph* graph_;
  static Rne* model_;
};
Graph* RneMetricProperties::graph_ = nullptr;
Rne* RneMetricProperties::model_ = nullptr;

TEST_F(RneMetricProperties, NonNegativityAndIdentity) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto s =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    const auto t =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    EXPECT_GE(model_->Query(s, t), 0.0);
    EXPECT_DOUBLE_EQ(model_->Query(s, s), 0.0);
  }
}

TEST_F(RneMetricProperties, Symmetry) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto s =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    const auto t =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    EXPECT_NEAR(model_->Query(s, t), model_->Query(t, s), 1e-9);
  }
}

TEST_F(RneMetricProperties, TriangleInequality) {
  // The L1 metric on served vectors guarantees this unconditionally —
  // a property exact methods like LT bounds rely on.
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const auto a =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    const auto b =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    const auto c =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    EXPECT_LE(model_->Query(a, c),
              model_->Query(a, b) + model_->Query(b, c) + 1e-6);
  }
}

// -------------------------------------------------- disconnected graphs

Graph TwoComponents() {
  GraphBuilder b(8);
  for (VertexId v = 0; v < 8; ++v) {
    b.SetCoord(v, {static_cast<double>(v % 4) * 100.0,
                   v < 4 ? 0.0 : 1000.0});
  }
  for (VertexId v = 0; v + 1 < 4; ++v) b.AddEdge(v, v + 1, 100.0);
  for (VertexId v = 4; v + 1 < 8; ++v) b.AddEdge(v, v + 1, 100.0);
  return b.Build();
}

TEST(DisconnectedTest, H2hReturnsInfinityAcrossComponents) {
  const Graph g = TwoComponents();
  H2HIndex h2h(g);
  EXPECT_EQ(h2h.Query(0, 5), kInfDistance);
  EXPECT_NEAR(h2h.Query(0, 3), 300.0, 1e-9);
  EXPECT_NEAR(h2h.Query(4, 7), 300.0, 1e-9);
}

TEST(DisconnectedTest, ChReturnsInfinityAcrossComponents) {
  const Graph g = TwoComponents();
  ContractionHierarchy ch(g);
  EXPECT_EQ(ch.Query(1, 6), kInfDistance);
  EXPECT_NEAR(ch.Query(0, 2), 200.0, 1e-9);
}

TEST(DisconnectedTest, GtreeReturnsInfinityAcrossComponents) {
  const Graph g = TwoComponents();
  GTreeOptions opt;
  opt.fanout = 2;
  opt.leaf_size = 3;
  GTree gtree(g, opt);
  EXPECT_EQ(gtree.Distance(0, 5), kInfDistance);
  EXPECT_NEAR(gtree.Distance(0, 3), 300.0, 1e-9);
}

TEST(DisconnectedTest, AltBoundsStayConsistent) {
  const Graph g = TwoComponents();
  Rng rng(4);
  AltIndex alt(g, 3, rng);
  // Bounds must bracket reachable pairs even when some landmarks are in the
  // other component.
  EXPECT_LE(alt.LowerBound(0, 3), 300.0 + 1e-9);
  EXPECT_GE(alt.UpperBound(0, 3), 300.0 - 1e-9);
}

// ------------------------------------------------------ degenerate inputs

TEST(DegenerateTest, SpatialGridAllCoincidentPoints) {
  GraphBuilder b(5);
  for (VertexId v = 0; v < 5; ++v) b.SetCoord(v, {1.0, 1.0});
  for (VertexId v = 0; v + 1 < 5; ++v) b.AddEdge(v, v + 1, 1.0);
  const Graph g = b.Build();
  const SpatialGrid grid(g, 4);
  // All vertices land in one cell; only bucket 0 is usable.
  EXPECT_TRUE(grid.BucketNonEmpty(0));
  Rng rng(5);
  VertexId s, t;
  ASSERT_TRUE(grid.SamplePair(0, rng, &s, &t));
  EXPECT_EQ(grid.BucketOfPair(s, t), 0u);
}

TEST(DegenerateTest, TinyGraphsBuildEverywhere) {
  GraphBuilder b(2);
  b.SetCoord(0, {0, 0});
  b.SetCoord(1, {100, 0});
  b.AddEdge(0, 1, 123.0);
  const Graph g = b.Build();

  ContractionHierarchy ch(g);
  EXPECT_NEAR(ch.Query(0, 1), 123.0, 1e-9);
  H2HIndex h2h(g);
  EXPECT_NEAR(h2h.Query(0, 1), 123.0, 1e-9);
  GTreeOptions opt;
  opt.leaf_size = 1;
  opt.fanout = 2;
  GTree gtree(g, opt);
  EXPECT_NEAR(gtree.Distance(0, 1), 123.0, 1e-9);
}

TEST(DegenerateTest, HierarchySingleVertexGraphRejectedByRne) {
  // Rne requires >= 2 vertices; the hierarchy itself handles 1.
  GraphBuilder b(1);
  const Graph g = b.Build();
  HierarchyOptions opt;
  const PartitionHierarchy h = PartitionHierarchy::Build(g, opt);
  EXPECT_EQ(h.num_nodes(), 1u);
}

// --------------------------------------------------------- loader fuzzing

TEST(DimacsFuzzTest, MalformedLinesRejectedNotCrashed) {
  const std::vector<std::string> bad_contents = {
      "p sp 0 0\n",                        // zero vertices
      "p sp 3 1\na 0 1 5\n",               // vertex id 0 (DIMACS is 1-based)
      "p sp 3 1\na 1 9 5\n",               // vertex id out of range
      "p sp 3 1\na 1 2 -5\n",              // negative weight
      "p sp 3 1\na 1 2\n",                 // missing weight
      "p sp x y\n",                        // garbage counts
  };
  int rejected = 0;
  for (size_t i = 0; i < bad_contents.size(); ++i) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("rne_fuzz_" + std::to_string(i) + ".gr"))
            .string();
    {
      std::ofstream out(path);
      out << bad_contents[i];
    }
    const auto result = LoadDimacs(path);
    rejected += !result.ok();
    std::filesystem::remove(path);
  }
  EXPECT_EQ(rejected, static_cast<int>(bad_contents.size()));
}

TEST(DimacsFuzzTest, CommentsAndBlankLinesTolerated) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rne_fuzz_ok.gr").string();
  {
    std::ofstream out(path);
    out << "c header comment\n\np sp 2 2\nc mid comment\na 1 2 7.5\na 2 1 "
           "7.5\n";
  }
  const auto result = LoadDimacs(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().NumVertices(), 2u);
  EXPECT_NEAR(result.value().EdgeWeight(0, 1), 7.5, 1e-9);
  std::filesystem::remove(path);
}

// ------------------------------------------- envelope format properties

// The envelope properties hold for any index kind; a test-local magic keeps
// them independent of which kinds the build registers.
constexpr uint32_t kPropMagic = 0x504f5250;  // "PROP"

std::string PropTempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(EnvelopeFuzzTest, SectionTableRoundTripsRandomSizesAndAlignments) {
  // Property: any set of sections (random count, sizes, alignments, flags)
  // written through BinaryWriter::AddSection is read back bit-identically
  // by both BinaryReader (streaming) and MappedEnvelope (zero-copy), with
  // every checksum passing.
  Rng rng(20260809);
  const std::string path = PropTempPath("rne_section_fuzz.bin");
  constexpr uint64_t kAlignments[] = {64, 128, 256, 1024, 4096};
  for (int round = 0; round < 15; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    const size_t num_sections = 1 + rng.UniformIndex(4);
    std::vector<std::vector<uint8_t>> payloads(num_sections);
    std::vector<uint64_t> alignments(num_sections);
    {
      BinaryWriter w(path, kPropMagic);
      for (size_t i = 0; i < num_sections; ++i) {
        payloads[i].resize(1 + rng.UniformIndex(5000));
        for (auto& b : payloads[i]) {
          b = static_cast<uint8_t>(rng.UniformIndex(256));
        }
        alignments[i] = kAlignments[rng.UniformIndex(5)];
        w.AddSection(static_cast<uint32_t>(0x10 + i), payloads[i].data(),
                     payloads[i].size(),
                     // Readers accept and ignore the retired flag bit.
                     i % 2 == 0 ? kSectionFlagRetiredLazyVerify : 0,
                     alignments[i]);
      }
      // Metadata payload of random length rides along.
      std::vector<uint32_t> meta(rng.UniformIndex(64));
      for (auto& m : meta) m = static_cast<uint32_t>(rng.UniformIndex(1000));
      w.WriteVector(meta);
      ASSERT_TRUE(w.Finish().ok());
    }

    // Streaming reader: structure, payload, then every section.
    BinaryReader r(path, kPropMagic);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.info().format_version, kFormatVersion);
    ASSERT_EQ(r.sections().size(), num_sections);
    std::vector<uint32_t> meta;
    ASSERT_TRUE(r.ReadVector(&meta));
    ASSERT_TRUE(r.Finish().ok());
    ASSERT_TRUE(r.VerifyAllSections().ok());
    for (size_t i = 0; i < num_sections; ++i) {
      const uint32_t tag = static_cast<uint32_t>(0x10 + i);
      const SectionInfo* sec = r.FindSection(tag);
      ASSERT_NE(sec, nullptr);
      ASSERT_EQ(sec->size, payloads[i].size());
      EXPECT_EQ(sec->offset % alignments[i], 0u);
      std::vector<uint8_t> data(sec->size);
      ASSERT_TRUE(r.ReadSectionInto(tag, data.data(), data.size()).ok());
      EXPECT_EQ(data, payloads[i]);
    }

    // Zero-copy reader: the mapped view serves the same bytes in place.
    auto env = MappedEnvelope::Open(path, kPropMagic);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    for (size_t i = 0; i < num_sections; ++i) {
      const uint8_t* data =
          env.value()->SectionData(static_cast<uint32_t>(0x10 + i));
      ASSERT_NE(data, nullptr);
      EXPECT_EQ(std::memcmp(data, payloads[i].data(), payloads[i].size()),
                0);
    }
    EXPECT_EQ(env.value()->SectionData(0xFF), nullptr);
  }
  std::filesystem::remove(path);
}

TEST(EnvelopeFuzzTest, SectionlessWriterEmitsV2WithEmptyTable) {
  // With no AddSection call the writer still emits the one envelope
  // layout: an empty section table (count = 0) and its CRC in front of the
  // payload, and nothing after the payload CRC.
  const std::string path = PropTempPath("rne_sectionless.bin");
  {
    BinaryWriter w(path, kPropMagic);
    w.WritePod<uint64_t>(7);
    ASSERT_TRUE(w.Finish().ok());
  }
  const auto info = InspectEnvelope(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().format_version, 2u);
  EXPECT_TRUE(info.value().sections.empty());
  EXPECT_EQ(info.value().payload_size, sizeof(uint64_t));
  EXPECT_EQ(std::filesystem::file_size(path),
            kEnvelopeHeaderSize + 4 + 4 + sizeof(uint64_t) +
                kEnvelopeTrailerSize);
  // The mapper accepts it like any other file; it just has no sections.
  auto env = MappedEnvelope::Open(path, kPropMagic);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_TRUE(env.value()->info().sections.empty());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rne
