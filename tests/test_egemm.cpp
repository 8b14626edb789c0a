// Tests for the EGEMM-TC kernel, functional and timed paths (gemm/egemm.hpp).
#include "gemm/egemm.hpp"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "fp/error_stats.hpp"
#include "gemm/baselines.hpp"
#include "gemm/gemm_api.hpp"

namespace egemm::gemm {
namespace {

struct Shape {
  std::size_t m, n, k;
};

class EgemmFunctionalTest : public ::testing::TestWithParam<Shape> {};

TEST_P(EgemmFunctionalTest, ExtendedPrecisionVsDoubleReference) {
  const Shape s = GetParam();
  const Matrix a = random_matrix(s.m, s.k, -1, 1, 100 + s.m);
  const Matrix b = random_matrix(s.k, s.n, -1, 1, 200 + s.n);
  const Matrix d = egemm_multiply(a, b);
  const MatrixD ref = gemm_reference(a, b, nullptr);
  // Per-element error: k split-products each within ~2^-21 of exact, plus
  // fp32 accumulation noise ~sqrt(k) * 2^-24 * |partial|. A linear-in-k
  // envelope with a generous constant covers both.
  const double bound = 1.5e-6 * static_cast<double>(s.k) + 1e-6;
  EXPECT_LT(max_abs_error(ref, d), bound)
      << "shape " << s.m << "x" << s.n << "x" << s.k;
}

TEST_P(EgemmFunctionalTest, FarBetterThanHalfGemm) {
  const Shape s = GetParam();
  if (s.k < 32) GTEST_SKIP() << "half error too small to compare at tiny k";
  const Matrix a = random_matrix(s.m, s.k, -1, 1, 300 + s.m);
  const Matrix b = random_matrix(s.k, s.n, -1, 1, 400 + s.n);
  const MatrixD ref = gemm_reference(a, b, nullptr);
  const double emu_err = max_abs_error(ref, egemm_multiply(a, b));
  const double half_err =
      max_abs_error(ref, gemm_ex(Backend::kCublasTcHalf, a, b, nullptr, {}));
  EXPECT_GT(half_err, 30.0 * emu_err);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EgemmFunctionalTest,
    ::testing::Values(Shape{16, 16, 16}, Shape{64, 64, 64},
                      Shape{128, 128, 128}, Shape{128, 64, 256},
                      Shape{33, 65, 47},    // edge tiles on every dimension
                      Shape{1, 1, 1}, Shape{256, 16, 16},
                      Shape{16, 256, 128}),
    [](const ::testing::TestParamInfo<Shape>& shape) {
      return std::to_string(shape.param.m) + "x" +
             std::to_string(shape.param.n) + "x" +
             std::to_string(shape.param.k);
    });

TEST(EgemmFunctional, AccumulatesC) {
  const Matrix a = random_matrix(32, 32, -1, 1, 1);
  const Matrix b = random_matrix(32, 32, -1, 1, 2);
  Matrix c(32, 32);
  c.fill(3.0f);
  const Matrix with_c = egemm_multiply(a, b, &c);
  const Matrix without = egemm_multiply(a, b);
  for (std::size_t i = 0; i < with_c.size(); ++i) {
    EXPECT_NEAR(with_c.data()[i], without.data()[i] + 3.0f, 1e-5f);
  }
}

TEST(EgemmFunctional, DeterministicAcrossRuns) {
  const Matrix a = random_matrix(64, 48, -1, 1, 11);
  const Matrix b = random_matrix(48, 80, -1, 1, 12);
  const Matrix d1 = egemm_multiply(a, b);
  const Matrix d2 = egemm_multiply(a, b);
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1.data()[i], d2.data()[i]);
  }
}

TEST(EgemmFunctional, TruncateSplitOptionDegradesAccuracy) {
  // Compared on the mean element error at modest k, where the split's
  // representation error is visible above the fp32 accumulation noise
  // (at k in the hundreds the two methods' max errors converge -- see
  // EXPERIMENTS.md).
  const Matrix a = random_matrix(256, 32, -1, 1, 21);
  const Matrix b = random_matrix(32, 256, -1, 1, 22);
  const MatrixD ref = gemm_reference(a, b, nullptr);
  EgemmOptions trunc;
  trunc.split = core::SplitMethod::kTruncateSplit;
  const Matrix round_d = egemm_multiply(a, b);
  const Matrix trunc_d = egemm_multiply(a, b, nullptr, trunc);
  const fp::ErrorStats round_stats = fp::compare(ref.data(), round_d.data());
  const fp::ErrorStats trunc_stats = fp::compare(ref.data(), trunc_d.data());
  EXPECT_LT(round_stats.mean_abs(), trunc_stats.mean_abs());
}

// -- timed path ---------------------------------------------------------------

TEST(EgemmTiming, Table4ConfigIsFeasibleOnT4) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  const KernelTiming t = egemm_timing(8192, 8192, 8192, spec);
  EXPECT_TRUE(t.feasible);
  EXPECT_EQ(t.blocks_per_sm, 1);
  EXPECT_EQ(t.registers_per_thread, 232);
  EXPECT_FALSE(t.register_spill);
  EXPECT_EQ(t.blocks, 4096u);
  EXPECT_EQ(t.waves, 103u);
  // §A.3 anchor: ~12 TFLOPS at 8192^3 on T4.
  EXPECT_GT(t.tflops, 10.0);
  EXPECT_LT(t.tflops, 14.5);
}

TEST(EgemmTiming, ThroughputRisesWithSize) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  double prev = 0.0;
  for (const std::uint64_t n : {1024u, 2048u, 4096u, 8192u}) {
    const KernelTiming t = egemm_timing(n, n, n, spec);
    EXPECT_GT(t.tflops, prev) << "n=" << n;
    prev = t.tflops;
  }
}

TEST(EgemmTiming, LatencyHidingHelps) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  EgemmOptions off;
  off.latency_hiding = false;
  const double with = egemm_timing(4096, 4096, 4096, spec).tflops;
  const double without = egemm_timing(4096, 4096, 4096, spec, off).tflops;
  EXPECT_GT(with / without, 1.05);
  EXPECT_LT(with / without, 1.4);
}

TEST(EgemmTiming, FragCachingHelps) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  EgemmOptions off;
  off.frag_caching = false;
  const double with = egemm_timing(4096, 4096, 4096, spec).tflops;
  const double without = egemm_timing(4096, 4096, 4096, spec, off).tflops;
  EXPECT_GT(with, without);
}

TEST(EgemmTiming, OversizedTileIsInfeasible) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  EgemmOptions opts;
  opts.tile = TileConfig{256, 256, 64, 64, 64, 8};  // blows shared memory
  ASSERT_TRUE(opts.tile.valid());
  const KernelTiming t = egemm_timing(4096, 4096, 4096, spec, opts);
  EXPECT_FALSE(t.feasible);
}

TEST(EgemmTiming, SpillingTileIsPenalized) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  EgemmOptions spilling;
  spilling.tile = TileConfig{128, 128, 64, 64, 32, 8};  // bk=64 spills
  const KernelTiming bad = egemm_timing(4096, 4096, 4096, spec, spilling);
  if (bad.feasible) {
    EXPECT_TRUE(bad.register_spill);
    const KernelTiming good = egemm_timing(4096, 4096, 4096, spec);
    EXPECT_GT(good.tflops, bad.tflops);
  }
}

TEST(EgemmTiming, RtxIsFasterThanT4) {
  const KernelTiming t4 = egemm_timing(8192, 8192, 8192, tcsim::tesla_t4());
  const KernelTiming rtx = egemm_timing(8192, 8192, 8192, tcsim::rtx6000());
  EXPECT_GT(rtx.tflops, 1.5 * t4.tflops);
}

TEST(EgemmTiming, TflopsFormulaEq9) {
  EXPECT_DOUBLE_EQ(gemm_tflops(1000, 1000, 1000, 2e-3), 1.0);
  EXPECT_EQ(gemm_tflops(1, 1, 1, 0.0), 0.0);
}

TEST(EgemmTiming, SplitPassScalesWithN2NotN3) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  const KernelTiming small = egemm_timing(2048, 2048, 2048, spec);
  const KernelTiming large = egemm_timing(8192, 8192, 8192, spec);
  const double split_ratio =
      large.split_pass_seconds / small.split_pass_seconds;
  const double total_ratio = large.seconds / small.seconds;
  EXPECT_LT(split_ratio, total_ratio);  // O(N^2) vs O(N^3)
}

}  // namespace
}  // namespace egemm::gemm
