// Tests for the multilevel partitioner and the partition hierarchy.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <set>

#include "graph/generators.h"
#include "partition/hierarchy.h"
#include "partition/partitioner.h"
#include "util/serialize.h"

namespace rne {
namespace {

// ------------------------------------------------------------- partitioner

class PartitionSweep
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(PartitionSweep, PartitionIsValidAndBalanced) {
  const auto [num_parts, seed] = GetParam();
  const Graph g = MakeGridNetwork(20, 20, 100.0, 0.3, 0.2, seed);
  PartitionOptions opt;
  opt.num_parts = num_parts;
  opt.seed = seed;
  const PartitionResult result = PartitionGraph(g, opt);

  ASSERT_EQ(result.part_of.size(), g.NumVertices());
  std::vector<size_t> sizes(num_parts, 0);
  for (const uint32_t p : result.part_of) {
    ASSERT_LT(p, num_parts);
    sizes[p] += 1;
  }
  const size_t ideal = g.NumVertices() / num_parts;
  for (size_t p = 0; p < num_parts; ++p) {
    EXPECT_GT(sizes[p], 0u) << "empty part " << p;
    EXPECT_LE(sizes[p], ideal * 2) << "part " << p << " grossly unbalanced";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PartitionSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(uint64_t{1}, uint64_t{7})));

TEST(PartitionerTest, CutIsSmallOnGrid) {
  // A 24x24 grid bisection has a ~24-edge optimal cut; the multilevel
  // pipeline should land within a small factor, far below random (~half of
  // all ~1100 edges).
  const Graph g = MakeGridNetwork(24, 24, 100.0, 0.0, 0.0, 5);
  PartitionOptions opt;
  opt.num_parts = 2;
  const PartitionResult result = PartitionGraph(g, opt);
  EXPECT_LT(result.cut_edges, 80u);
  EXPECT_GT(result.cut_edges, 0u);
}

TEST(PartitionerTest, SinglePartIsTrivial) {
  const Graph g = MakeGridNetwork(4, 4);
  PartitionOptions opt;
  opt.num_parts = 1;
  const PartitionResult result = PartitionGraph(g, opt);
  for (const uint32_t p : result.part_of) EXPECT_EQ(p, 0u);
  EXPECT_EQ(result.cut_edges, 0u);
}

TEST(PartitionerTest, CutStatsConsistent) {
  const Graph g = MakeGridNetwork(8, 8, 100.0, 0.2, 0.1, 6);
  PartitionOptions opt;
  opt.num_parts = 4;
  PartitionResult result = PartitionGraph(g, opt);
  double expected_weight = 0.0;
  size_t expected_edges = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Edge& e : g.Neighbors(v)) {
      if (v < e.to && result.part_of[v] != result.part_of[e.to]) {
        expected_weight += e.weight;
        ++expected_edges;
      }
    }
  }
  EXPECT_DOUBLE_EQ(result.cut_weight, expected_weight);
  EXPECT_EQ(result.cut_edges, expected_edges);
}

TEST(PartitionerTest, DeterministicForSeed) {
  const Graph g = MakeGridNetwork(12, 12, 100.0, 0.2, 0.1, 7);
  PartitionOptions opt;
  opt.num_parts = 4;
  opt.seed = 77;
  const auto a = PartitionGraph(g, opt);
  const auto b = PartitionGraph(g, opt);
  EXPECT_EQ(a.part_of, b.part_of);
}

// ---------------------------------------------------------------- hierarchy

class HierarchySweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(HierarchySweep, Invariants) {
  const auto [fanout, leaf_threshold] = GetParam();
  const Graph g = MakeGridNetwork(16, 16, 100.0, 0.2, 0.1, 8);
  HierarchyOptions opt;
  opt.fanout = fanout;
  opt.leaf_threshold = leaf_threshold;
  const PartitionHierarchy h = PartitionHierarchy::Build(g, opt);

  // Root holds everything.
  EXPECT_EQ(h.node(h.root()).vertices.size(), g.NumVertices());
  EXPECT_EQ(h.num_vertices(), g.NumVertices());

  // Children partition their parent's vertex set.
  for (uint32_t id = 0; id < h.num_nodes(); ++id) {
    const auto& node = h.node(id);
    if (node.IsLeaf()) {
      EXPECT_LE(node.vertices.size(), leaf_threshold);
      continue;
    }
    std::set<VertexId> from_children;
    for (const uint32_t c : node.children) {
      EXPECT_EQ(h.node(c).parent, id);
      EXPECT_EQ(h.node(c).level, node.level + 1);
      for (const VertexId v : h.node(c).vertices) {
        EXPECT_TRUE(from_children.insert(v).second) << "vertex in two children";
      }
    }
    EXPECT_EQ(from_children.size(), node.vertices.size());
  }

  // Ancestor paths: top-down, consistent with LeafOf, correct levels.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto& path = h.AncestorsOf(v);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.back(), h.LeafOf(v));
    for (size_t i = 0; i < path.size(); ++i) {
      EXPECT_EQ(h.node(path[i]).level, i + 1);
      if (i > 0) {
        EXPECT_EQ(h.node(path[i]).parent, path[i - 1]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, HierarchySweep,
                         ::testing::Combine(::testing::Values(2, 4),
                                            ::testing::Values(16, 64)));

TEST(HierarchyTest, PartitionAtLevelCoversAllVertices) {
  const Graph g = MakeGridNetwork(12, 12, 100.0, 0.2, 0.1, 9);
  HierarchyOptions opt;
  opt.fanout = 4;
  opt.leaf_threshold = 16;
  const PartitionHierarchy h = PartitionHierarchy::Build(g, opt);
  for (uint32_t level = 0; level <= h.max_level(); ++level) {
    std::set<VertexId> covered;
    for (const uint32_t id : h.PartitionAtLevel(level)) {
      for (const VertexId v : h.node(id).vertices) {
        EXPECT_TRUE(covered.insert(v).second)
            << "vertex covered twice at level " << level;
      }
    }
    EXPECT_EQ(covered.size(), g.NumVertices()) << "level " << level;
  }
}

TEST(HierarchyTest, DegenerateSingleNodeTree) {
  const Graph g = MakeGridNetwork(6, 6);
  HierarchyOptions opt;
  opt.leaf_threshold = g.NumVertices();  // flat model configuration
  const PartitionHierarchy h = PartitionHierarchy::Build(g, opt);
  EXPECT_EQ(h.num_nodes(), 1u);
  EXPECT_EQ(h.max_level(), 0u);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_TRUE(h.AncestorsOf(v).empty());
    EXPECT_EQ(h.LeafOf(v), h.root());
  }
}

TEST(HierarchyTest, MaxLevelsCapRespected) {
  const Graph g = MakeGridNetwork(16, 16);
  HierarchyOptions opt;
  opt.fanout = 2;
  opt.leaf_threshold = 4;
  opt.max_levels = 3;
  const PartitionHierarchy h = PartitionHierarchy::Build(g, opt);
  EXPECT_LE(h.max_level(), 2u);
}

TEST(HierarchyTest, StreamRoundTrip) {
  // The hierarchy persists only as a stream inside an RNE model file;
  // round-trip it through WriteTo/ReadFrom in an envelope of a test-local
  // kind.
  constexpr uint32_t kStreamMagic = 0x54534548;  // "HEST"
  const Graph g = MakeGridNetwork(10, 10, 100.0, 0.2, 0.1, 10);
  HierarchyOptions opt;
  opt.fanout = 4;
  opt.leaf_threshold = 16;
  const PartitionHierarchy h = PartitionHierarchy::Build(g, opt);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rne_hier_test.bin").string();
  {
    BinaryWriter w(path, kStreamMagic);
    h.WriteTo(w);
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path, kStreamMagic);
  PartitionHierarchy h2;
  ASSERT_TRUE(PartitionHierarchy::ReadFrom(r, &h2)) << r.status().ToString();
  ASSERT_TRUE(r.Finish().ok());
  ASSERT_EQ(h2.num_nodes(), h.num_nodes());
  ASSERT_EQ(h2.num_vertices(), h.num_vertices());
  EXPECT_EQ(h2.max_level(), h.max_level());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(h2.LeafOf(v), h.LeafOf(v));
    EXPECT_EQ(h2.AncestorsOf(v), h.AncestorsOf(v));
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rne
