// Tests for the extension features: the three-way split (exact binary32
// emulation with 9 Tensor Core instructions) and the BLAS-style gemm_ex
// entry point.
#include <cmath>

#include <gtest/gtest.h>

#include "core/split.hpp"
#include "fp/error_stats.hpp"
#include "fp/float_bits.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/plan.hpp"
#include "util/rng.hpp"

namespace egemm {
namespace {

// -- three-way split -----------------------------------------------------------

TEST(Split3, DecompositionIsExactOnNormalRange) {
  util::Xoshiro256 rng(1);
  for (int trial = 0; trial < 200000; ++trial) {
    const float x = rng.uniform(-1.0f, 1.0f);
    const core::SplitThirds t = core::split3_scalar(x);
    EXPECT_EQ(core::combine3_scalar(t), static_cast<double>(x)) << "x=" << x;
  }
}

TEST(Split3, PlanesAreOrderedByMagnitude) {
  util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 50000; ++trial) {
    const float x = rng.uniform(-1.0f, 1.0f);
    const core::SplitThirds t = core::split3_scalar(x);
    if (!t.mid.is_zero()) {
      EXPECT_GT(std::fabs(t.hi.to_double()), std::fabs(t.mid.to_double()));
    }
    if (!t.lo.is_zero()) {
      EXPECT_GT(std::fabs(t.mid.to_double()), std::fabs(t.lo.to_double()));
    }
  }
}

TEST(Split3, SpanVariantMatchesScalar) {
  util::Xoshiro256 rng(3);
  std::vector<float> input(300);
  for (auto& v : input) v = rng.uniform(-1.0f, 1.0f);
  // Signed zeros, binary16 subnormals, the binary16 overflow edge,
  // infinities and NaN payloads.
  for (const float edge :
       {0.0f, -0.0f, 0x1.0p-24f, -0x1.8p-23f, 0x1.ff8p-15f, 0x1.8p-25f,
        65504.0f, 65519.0f, 65520.0f, -65520.0f, INFINITY, -INFINITY,
        fp::f32_from_bits(0x7fc00001u), fp::f32_from_bits(0x7fa00000u),
        fp::f32_from_bits(0xffc12345u)}) {
    input.push_back(edge);
  }
  const std::size_t n = input.size();
  for (const core::SplitMethod method :
       {core::SplitMethod::kRoundSplit, core::SplitMethod::kTruncateSplit}) {
    // Depth 3 through the depth loop and through split3_span_f32.
    std::vector<float> hi(n), mid(n), lo(n), his(n), mids(n), los(n);
    float* const three[] = {hi.data(), mid.data(), lo.data()};
    core::split_planes_f32(input, three, method);
    core::split3_span_f32(input, his, mids, los, method);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(fp::f32_hex(input[i]));
      const core::SplitThirds t = core::split3_scalar(input[i], method);
      EXPECT_EQ(fp::f32_bits(hi[i]), fp::f32_bits(t.hi.to_float()));
      EXPECT_EQ(fp::f32_bits(mid[i]), fp::f32_bits(t.mid.to_float()));
      EXPECT_EQ(fp::f32_bits(lo[i]), fp::f32_bits(t.lo.to_float()));
      EXPECT_EQ(fp::f32_bits(his[i]), fp::f32_bits(hi[i]));
      EXPECT_EQ(fp::f32_bits(mids[i]), fp::f32_bits(mid[i]));
      EXPECT_EQ(fp::f32_bits(los[i]), fp::f32_bits(lo[i]));
    }
  }
}

TEST(Split3, ThirdPlaneIsAbsorbedByTheFp32Accumulator) {
  // The documented negative result (the recovery-3term rung in
  // core/scheme.hpp): for inputs in [-1, 1] the 9-product three-way-split
  // GEMM is BIT-IDENTICAL to Alg. 1 -- the hi and mid planes coincide with
  // Alg. 1's hi/lo, and the third plane's products fall below the binary32
  // accumulator's ulp. Past 21 bits the bottleneck is the accumulator, not
  // the split.
  const gemm::Matrix a = gemm::random_matrix(256, 64, -1, 1, 11);
  const gemm::Matrix b = gemm::random_matrix(64, 256, -1, 1, 12);
  const gemm::Matrix alg1 = gemm::egemm_multiply(a, b);
  gemm::Matrix three;
  gemm::default_context()
      .plan_scheme(core::SchemeId::kRecovery3, 256, 256, 64)
      ->execute(gemm::default_context(), a, b, nullptr, three);
  for (std::size_t i = 0; i < alg1.size(); ++i) {
    EXPECT_EQ(alg1.data()[i], three.data()[i]) << i;
  }
}

TEST(Split3, MidPlaneCoincidesWithTwoWayLoPlane) {
  util::Xoshiro256 rng(4);
  for (int trial = 0; trial < 50000; ++trial) {
    const float x = rng.uniform(-1.0f, 1.0f);
    const core::SplitThirds t3 = core::split3_scalar(x);
    const core::SplitHalves t2 =
        core::split_scalar(x, core::SplitMethod::kRoundSplit);
    EXPECT_EQ(t3.hi.bits(), t2.hi.bits());
    EXPECT_EQ(t3.mid.bits(), t2.lo.bits());
  }
}

TEST(Split3, HandlesEdgeTilesAndC) {
  const gemm::Matrix a = gemm::random_matrix(33, 47, -1, 1, 15);
  const gemm::Matrix b = gemm::random_matrix(47, 29, -1, 1, 16);
  gemm::Matrix c(33, 29);
  c.fill(2.0f);
  gemm::Matrix d;
  gemm::default_context()
      .plan_scheme(core::SchemeId::kRecovery3, 33, 29, 47)
      ->execute(gemm::default_context(), a, b, &c, d);
  const gemm::MatrixD ref = gemm::gemm_reference(a, b, &c);
  EXPECT_LT(gemm::max_abs_error(ref, d), 1e-5);
}

TEST(Split3, TimingCostsRoughly9Over4) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  const double alg1 = gemm::egemm_timing(8192, 8192, 8192, spec).seconds;
  const gemm::KernelTiming three =
      gemm::default_context()
          .plan_scheme(core::SchemeId::kRecovery3, 8192, 8192, 8192)
          ->timing(spec);
  EXPECT_GT(three.seconds / alg1, 1.8);
  EXPECT_LT(three.seconds / alg1, 2.6);
  // Even the 9-instruction schedule stays ahead of CUDA-core FP32.
  const double fp32 =
      gemm::time_gemm(gemm::Backend::kCublasFp32, 8192, 8192, 8192, spec)
          .seconds;
  EXPECT_LT(three.seconds, fp32);
}

// -- gemm_ex ------------------------------------------------------------------

TEST(GemmEx, TransposeOps) {
  const gemm::Matrix a = gemm::random_matrix(24, 40, -1, 1, 21);  // k x m
  const gemm::Matrix b = gemm::random_matrix(32, 24, -1, 1, 22);  // n x k
  gemm::GemmExParams params;
  params.trans_a = gemm::Transpose::kTranspose;
  params.trans_b = gemm::Transpose::kTranspose;
  const gemm::Matrix d =
      gemm::gemm_ex(gemm::Backend::kEgemmTC, a, b, nullptr, params);
  ASSERT_EQ(d.rows(), 40u);
  ASSERT_EQ(d.cols(), 32u);
  const gemm::MatrixD ref =
      gemm::gemm_reference(gemm::transpose(a), gemm::transpose(b), nullptr);
  EXPECT_LT(gemm::max_abs_error(ref, d), 1e-4);
}

TEST(GemmEx, AlphaBetaScaling) {
  const gemm::Matrix a = gemm::random_matrix(32, 32, -1, 1, 23);
  const gemm::Matrix b = gemm::random_matrix(32, 32, -1, 1, 24);
  gemm::Matrix c(32, 32);
  c.fill(1.5f);
  gemm::GemmExParams params;
  params.alpha = 2.0f;
  params.beta = -0.5f;
  const gemm::Matrix d =
      gemm::gemm_ex(gemm::Backend::kEgemmTC, a, b, &c, params);
  const gemm::MatrixD product = gemm::gemm_reference(a, b, nullptr);
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double expected = 2.0 * product.data()[i] - 0.5 * 1.5;
    EXPECT_NEAR(d.data()[i], expected, 1e-4);
  }
}

TEST(GemmEx, FastPathMatchesRunGemm) {
  const gemm::Matrix a = gemm::random_matrix(48, 32, -1, 1, 25);
  const gemm::Matrix b = gemm::random_matrix(32, 48, -1, 1, 26);
  gemm::Matrix c(48, 48);
  c.fill(0.25f);
  // The kernel alone: the backend's plan executed directly, no epilogue.
  const auto kernel = [&](const gemm::Matrix* acc) {
    gemm::GemmContext& ctx = gemm::default_context();
    gemm::Matrix d;
    ctx.plan(gemm::Backend::kEgemmTC, 48, 48, 32)->execute(ctx, a, b, acc, d);
    return d;
  };
  gemm::GemmExParams params;  // alpha 1, beta 0
  const gemm::Matrix d0 =
      gemm::gemm_ex(gemm::Backend::kEgemmTC, a, b, nullptr, params);
  const gemm::Matrix r0 = kernel(nullptr);
  for (std::size_t i = 0; i < d0.size(); ++i) {
    EXPECT_EQ(d0.data()[i], r0.data()[i]);
  }
  params.beta = 1.0f;
  const gemm::Matrix d1 =
      gemm::gemm_ex(gemm::Backend::kEgemmTC, a, b, &c, params);
  const gemm::Matrix r1 = kernel(&c);
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1.data()[i], r1.data()[i]);
  }
}

class GemmExBackendTest : public ::testing::TestWithParam<gemm::Backend> {};

TEST_P(GemmExBackendTest, AllBackendsSupportTheBlasSurface) {
  const gemm::Matrix a = gemm::random_matrix(20, 24, -1, 1, 27);  // k x m
  const gemm::Matrix b = gemm::random_matrix(20, 28, -1, 1, 28);  // k x n
  gemm::GemmExParams params;
  params.trans_a = gemm::Transpose::kTranspose;
  params.alpha = 0.5f;
  const gemm::Matrix d = gemm::gemm_ex(GetParam(), a, b, nullptr, params);
  ASSERT_EQ(d.rows(), 24u);
  ASSERT_EQ(d.cols(), 28u);
  const gemm::MatrixD ref =
      gemm::gemm_reference(gemm::transpose(a), b, nullptr);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_NEAR(d.data()[i], 0.5 * ref.data()[i], 5e-3)
        << gemm::backend_name(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, GemmExBackendTest,
                         ::testing::ValuesIn(gemm::all_backends()),
                         [](const ::testing::TestParamInfo<gemm::Backend>& i) {
                           std::string name = gemm::backend_name(i.param);
                           for (char& ch : name) {
                             if (ch == '-' || ch == ' ') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace egemm
