// Parity fuzz tests for the runtime-dispatched SIMD kernels: every backend
// the CPU supports must agree with the scalar reference across awkward
// dimensions (below, at, and just past the vector width) and adversarial
// float values (signed zeros, denormals, huge magnitudes).
#include "core/kernels.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace rne {
namespace {

// Dims chosen to hit every remainder-loop path: shorter than any vector
// width, exactly one AVX2 vector (8), byte-vector width (16), typical model
// dims, and one past a vector boundary.
const size_t kDims[] = {1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 32, 64, 65, 256};

// Adversarial values cycled into random vectors: signed zeros, the smallest
// denormal, a value whose difference is denormal, and magnitudes large
// enough that squaring changes the exponent a lot.
float AdversarialValue(size_t i) {
  static const float kValues[] = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min(),
      1e30f,
      -1e30f,
      1.0f,
      -1.0f,
      3.5e-5f,
  };
  return kValues[i % (sizeof(kValues) / sizeof(kValues[0]))];
}

std::vector<float> RandomVec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.UniformReal(-2.0, 2.0));
  return v;
}

std::vector<float> AdversarialVec(size_t n, Rng& rng, bool mirror_of_random,
                                  const std::vector<float>& other) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.UniformIndex(3)) {
      case 0:
        v[i] = AdversarialValue(rng.UniformIndex(10));
        break;
      case 1:
        // Equal to the other operand: difference is exactly +/-0.
        v[i] = mirror_of_random ? other[i] : 0.0f;
        break;
      default:
        v[i] = static_cast<float>(rng.UniformReal(-2.0, 2.0));
    }
  }
  return v;
}

std::vector<uint8_t> RandomBytes(size_t n, Rng& rng) {
  std::vector<uint8_t> v(n);
  for (uint8_t& x : v) {
    // Bias toward the extremes so |a-b| hits 0 and 255 often.
    const size_t r = rng.UniformIndex(4);
    x = r == 0 ? 0
               : (r == 1 ? 255 : static_cast<uint8_t>(rng.UniformIndex(256)));
  }
  return v;
}

class KernelBackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  const KernelOps& ops() const {
    const KernelOps* ops = KernelBackendByName(GetParam());
    EXPECT_NE(ops, nullptr);
    return *ops;
  }
  const KernelOps& ref() const { return ScalarKernels(); }
};

TEST_P(KernelBackendTest, L1MatchesScalar) {
  Rng rng(101);
  for (const size_t dim : kDims) {
    for (int it = 0; it < 50; ++it) {
      const auto a = RandomVec(dim, rng);
      const auto b = it % 2 == 0 ? RandomVec(dim, rng)
                                 : AdversarialVec(dim, rng, true, a);
      const double want = ref().l1(a.data(), b.data(), dim);
      const double got = ops().l1(a.data(), b.data(), dim);
      // SIMD backends round each element difference to float (<= 1/2 ulp
      // relative) before the double accumulation, so the total deviation is
      // provably <= eps_f/2 * want ~ 6e-8 relative; 1e-6 leaves 16x margin.
      EXPECT_NEAR(got, want, 1e-6 * (1.0 + std::abs(want)))
          << "dim=" << dim << " it=" << it;
    }
  }
}

TEST_P(KernelBackendTest, L2SquaredMatchesScalar) {
  Rng rng(102);
  for (const size_t dim : kDims) {
    for (int it = 0; it < 50; ++it) {
      const auto a = it % 2 == 0 ? RandomVec(dim, rng)
                                 : AdversarialVec(dim, rng, false, {});
      const auto b = it % 3 == 0 ? AdversarialVec(dim, rng, true, a)
                                 : RandomVec(dim, rng);
      const double want = ref().l2sq(a.data(), b.data(), dim);
      const double got = ops().l2sq(a.data(), b.data(), dim);
      // Float-domain element difference: <= ~1.2e-7 relative (2 * eps_f/2,
      // the difference enters squared); see the L1 parity comment.
      EXPECT_NEAR(got, want, 1e-6 * (1.0 + std::abs(want)))
          << "dim=" << dim << " it=" << it;
    }
  }
}

TEST_P(KernelBackendTest, L1SignGradMatchesScalar) {
  Rng rng(103);
  for (const size_t dim : kDims) {
    for (int it = 0; it < 50; ++it) {
      const auto a = RandomVec(dim, rng);
      const auto b = it % 2 == 0 ? RandomVec(dim, rng)
                                 : AdversarialVec(dim, rng, true, a);
      std::vector<float> want_grad(dim, 99.0f);
      std::vector<float> got_grad(dim, -99.0f);
      const double want =
          ref().l1_sign_grad(a.data(), b.data(), dim, want_grad.data());
      const double got =
          ops().l1_sign_grad(a.data(), b.data(), dim, got_grad.data());
      EXPECT_NEAR(got, want, 1e-6 * (1.0 + std::abs(want)))
          << "dim=" << dim << " it=" << it;
      for (size_t i = 0; i < dim; ++i) {
        // The sign must be exact (it steers SGD), including the 0 case when
        // the operands are equal.
        EXPECT_EQ(got_grad[i], want_grad[i])
            << "dim=" << dim << " it=" << it << " i=" << i << " a=" << a[i]
            << " b=" << b[i];
      }
    }
  }
}

TEST_P(KernelBackendTest, AxpyMatchesScalar) {
  Rng rng(104);
  for (const size_t dim : kDims) {
    for (int it = 0; it < 50; ++it) {
      const auto base = RandomVec(dim, rng);
      const auto g = it % 2 == 0 ? RandomVec(dim, rng)
                                 : AdversarialVec(dim, rng, false, {});
      const float alpha = static_cast<float>(rng.UniformReal(-0.5, 0.5));
      auto want = base;
      auto got = base;
      ref().axpy(want.data(), g.data(), dim, alpha);
      ops().axpy(got.data(), g.data(), dim, alpha);
      for (size_t i = 0; i < dim; ++i) {
        // FMA variants skip the intermediate rounding of alpha * g[i]; allow
        // a tiny relative difference.
        EXPECT_NEAR(got[i], want[i], 1e-5 * (1.0 + std::abs(want[i])))
            << "dim=" << dim << " it=" << it << " i=" << i;
      }
    }
  }
}

TEST_P(KernelBackendTest, QuantizedDistMatchesScalar) {
  Rng rng(105);
  for (const size_t dim : kDims) {
    for (int it = 0; it < 50; ++it) {
      const auto a = RandomBytes(dim, rng);
      const auto b = RandomBytes(dim, rng);
      std::vector<float> steps(dim);
      for (float& s : steps) {
        s = static_cast<float>(rng.UniformReal(1e-4, 0.1));
      }
      const double want = ref().qdist(a.data(), b.data(), steps.data(), dim);
      const double got = ops().qdist(a.data(), b.data(), steps.data(), dim);
      // Vector variants accumulate in float; differences stay tiny because
      // |a-b| <= 255 and steps are small.
      EXPECT_NEAR(got, want, 1e-4 * (1.0 + std::abs(want)))
          << "dim=" << dim << " it=" << it;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, KernelBackendTest,
    ::testing::ValuesIn(
        [] {
          std::vector<const char*> names;
          for (const char* const* n = SupportedKernelBackends(); *n != nullptr;
               ++n) {
            names.push_back(*n);
          }
          return names;
        }()),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(KernelDispatchTest, ActiveBackendIsSupported) {
  const char* active = KernelBackendName();
  bool found = false;
  for (const char* const* n = SupportedKernelBackends(); *n != nullptr; ++n) {
    if (std::string(*n) == active) found = true;
  }
  EXPECT_TRUE(found) << active;
  EXPECT_NE(KernelBackendByName(active), nullptr);
  EXPECT_EQ(KernelBackendByName("no-such-backend"), nullptr);
}

TEST(KernelDispatchTest, ScalarAlwaysSupported) {
  EXPECT_EQ(KernelBackendByName("scalar"), &ScalarKernels());
}

TEST(KernelWrapperTest, SpanWrappersUseActiveBackend) {
  Rng rng(106);
  const auto a = RandomVec(64, rng);
  const auto b = RandomVec(64, rng);
  EXPECT_NEAR(L1Kernel(a, b), ActiveKernels().l1(a.data(), b.data(), 64),
              1e-12);
  EXPECT_NEAR(L2SquaredKernel(a, b),
              ActiveKernels().l2sq(a.data(), b.data(), 64), 1e-12);
  std::vector<float> grad(64);
  const double d = L1SignGradKernel(a, b, grad);
  EXPECT_NEAR(d, L1Kernel(a, b), 1e-9);
  auto row = a;
  AxpyKernel(std::span<float>(row), b, 0.0f);
  for (size_t i = 0; i < row.size(); ++i) EXPECT_EQ(row[i], a[i]);
}

}  // namespace
}  // namespace rne
