// Tests for 8-bit quantized serving: footprint, accuracy envelope vs the
// float model, and persistence.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "algo/distance_sampler.h"
#include "core/evaluation.h"
#include "core/quantized.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace rne {
namespace {

class QuantizedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RoadNetworkConfig cfg;
    cfg.rows = 16;
    cfg.cols = 16;
    cfg.seed = 23;
    graph_ = new Graph(MakeRoadNetwork(cfg));
    RneConfig config;
    config.dim = 32;
    config.train.level_samples = 4000;
    config.train.vertex_samples = 25000;
    config.train.finetune_rounds = 1;
    config.train.finetune_samples = 6000;
    model_ = new Rne(Rne::Build(*graph_, config));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete graph_;
  }
  static Graph* graph_;
  static Rne* model_;
};
Graph* QuantizedTest::graph_ = nullptr;
Rne* QuantizedTest::model_ = nullptr;

TEST_F(QuantizedTest, FourTimesSmallerThanFloatModel) {
  const QuantizedRne q(*model_);
  EXPECT_EQ(q.NumVertices(), model_->NumVertices());
  EXPECT_EQ(q.dim(), model_->dim());
  // 1 byte vs 4 bytes per entry, plus the tiny per-dim step table.
  EXPECT_LT(q.IndexBytes(), model_->IndexBytes() / 3);
}

TEST_F(QuantizedTest, QueriesTrackTheFloatModelClosely) {
  const QuantizedRne q(*model_);
  Rng rng(23);
  double worst = 0.0;
  for (int i = 0; i < 500; ++i) {
    const auto s =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    const auto t =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    const double full = model_->Query(s, t);
    const double quant = q.Query(s, t);
    if (full > 100.0) {
      worst = std::max(worst, std::abs(quant - full) / full);
    }
  }
  // 8-bit rounding noise: per-dim error <= step/2, summed; stays small
  // relative to real distances.
  EXPECT_LT(worst, 0.10);
}

TEST_F(QuantizedTest, EndToEndErrorNearFloatModel) {
  DistanceSampler sampler(*graph_);
  Rng rng(24);
  const auto val = sampler.RandomPairs(500, rng);
  const double full_err =
      EvaluateErrors(
          [&](VertexId s, VertexId t) { return model_->Query(s, t); }, val)
          .mean_rel;
  const QuantizedRne q(*model_);
  const double quant_err =
      EvaluateErrors([&](VertexId s, VertexId t) { return q.Query(s, t); },
                     val)
          .mean_rel;
  // Quantization may add a little error but must not destroy the model.
  EXPECT_LT(quant_err, full_err + 0.02);
}

TEST_F(QuantizedTest, MetricAxiomsSurviveQuantization) {
  const QuantizedRne q(*model_);
  Rng rng(25);
  for (int i = 0; i < 200; ++i) {
    const auto a =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    const auto b =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    const auto c =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    EXPECT_DOUBLE_EQ(q.Query(a, a), 0.0);
    EXPECT_DOUBLE_EQ(q.Query(a, b), q.Query(b, a));
    EXPECT_LE(q.Query(a, c), q.Query(a, b) + q.Query(b, c) + 1e-9);
  }
}

TEST_F(QuantizedTest, SaveLoadRoundTrip) {
  const QuantizedRne q(*model_);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rne_quant_test.bin").string();
  ASSERT_TRUE(q.Save(path).ok());
  auto loaded = QuantizedRne::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Rng rng(26);
  for (int i = 0; i < 100; ++i) {
    const auto s =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    const auto t =
        static_cast<VertexId>(rng.UniformIndex(graph_->NumVertices()));
    EXPECT_EQ(loaded.value().Query(s, t), q.Query(s, t));
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rne
