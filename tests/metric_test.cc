// Tests for the Lp representation metrics: metric axioms (property sweeps
// over p), specialized-kernel agreement, and gradient checks against finite
// differences.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/metric.h"
#include "util/rng.h"

namespace rne {
namespace {

std::vector<float> RandomVec(size_t dim, Rng& rng) {
  std::vector<float> v(dim);
  for (float& x : v) x = static_cast<float>(rng.UniformReal(-2.0, 2.0));
  return v;
}

TEST(MetricTest, L1KnownValues) {
  const std::vector<float> a = {1.0f, -2.0f, 3.0f};
  const std::vector<float> b = {0.0f, 2.0f, 3.5f};
  EXPECT_NEAR(L1Dist(a, b), 1.0 + 4.0 + 0.5, 1e-9);
}

TEST(MetricTest, L2KnownValues) {
  const std::vector<float> a = {0.0f, 0.0f};
  const std::vector<float> b = {3.0f, 4.0f};
  EXPECT_NEAR(L2Dist(a, b), 5.0, 1e-9);
}

TEST(MetricTest, DispatcherHitsSpecializations) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const auto a = RandomVec(17, rng);
    const auto b = RandomVec(17, rng);
    EXPECT_NEAR(MetricDist(a, b, 1.0), LpDist(a, b, 1.0), 1e-6);
    EXPECT_NEAR(MetricDist(a, b, 2.0), LpDist(a, b, 2.0), 1e-6);
  }
}

class MetricAxiomSweep : public ::testing::TestWithParam<double> {};

TEST_P(MetricAxiomSweep, NonNegativityAndIdentity) {
  const double p = GetParam();
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const auto a = RandomVec(8, rng);
    const auto b = RandomVec(8, rng);
    EXPECT_GE(MetricDist(a, b, p), 0.0);
    EXPECT_NEAR(MetricDist(a, a, p), 0.0, 1e-9);
  }
}

TEST_P(MetricAxiomSweep, Symmetry) {
  const double p = GetParam();
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto a = RandomVec(8, rng);
    const auto b = RandomVec(8, rng);
    EXPECT_NEAR(MetricDist(a, b, p), MetricDist(b, a, p), 1e-9);
  }
}

TEST_P(MetricAxiomSweep, TriangleInequalityForTrueMetrics) {
  const double p = GetParam();
  if (p < 1.0) GTEST_SKIP() << "Lp with p < 1 is not a metric (Fig 9 only)";
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const auto a = RandomVec(8, rng);
    const auto b = RandomVec(8, rng);
    const auto c = RandomVec(8, rng);
    EXPECT_LE(MetricDist(a, c, p),
              MetricDist(a, b, p) + MetricDist(b, c, p) + 1e-6);
  }
}

TEST_P(MetricAxiomSweep, GradientMatchesFiniteDifference) {
  const double p = GetParam();
  Rng rng(5);
  const size_t dim = 6;
  for (int trial = 0; trial < 20; ++trial) {
    auto a = RandomVec(dim, rng);
    const auto b = RandomVec(dim, rng);
    const double dist = MetricDist(a, b, p);
    if (dist < 0.1) continue;  // gradient ill-conditioned near zero
    std::vector<double> grad(dim);
    MetricGradient(a, b, p, dist, grad);
    const double eps = 1e-3;
    for (size_t i = 0; i < dim; ++i) {
      // |.| kink
      if (std::abs(static_cast<double>(a[i]) - b[i]) < 0.05) continue;
      // Skip clamped magnitudes (MetricGradient caps per-dim gradients at 1
      // to keep p < 1 training stable).
      if (std::abs(grad[i]) >= 1.0 - 1e-12) continue;
      const float orig = a[i];
      a[i] = orig + static_cast<float>(eps);
      const double up = MetricDist(a, b, p);
      a[i] = orig - static_cast<float>(eps);
      const double down = MetricDist(a, b, p);
      a[i] = orig;
      EXPECT_NEAR(grad[i], (up - down) / (2 * eps), 2e-2)
          << "p=" << p << " dim=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PValues, MetricAxiomSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 3.0, 5.0));

TEST(MetricTest, L1GradientIsSign) {
  const std::vector<float> a = {1.0f, -1.0f, 0.0f};
  const std::vector<float> b = {0.0f, 0.0f, 0.0f};
  std::vector<double> grad(3);
  MetricGradient(a, b, 1.0, L1Dist(a, b), grad);
  EXPECT_DOUBLE_EQ(grad[0], 1.0);
  EXPECT_DOUBLE_EQ(grad[1], -1.0);
  EXPECT_DOUBLE_EQ(grad[2], 0.0);
}

TEST(MetricTest, GradientZeroAtCoincidence) {
  const std::vector<float> a = {1.0f, 2.0f};
  std::vector<double> grad(2);
  MetricGradient(a, a, 2.0, 0.0, grad);
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
  EXPECT_DOUBLE_EQ(grad[1], 0.0);
}

}  // namespace
}  // namespace rne
