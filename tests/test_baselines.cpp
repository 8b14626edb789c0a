// Tests for the Table 5 baseline kernels (gemm/baselines.hpp).
#include "gemm/baselines.hpp"
#include "gemm/gemm_api.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace egemm::gemm {
namespace {

TEST(BaselineFunctional, SgemmMatchesDoubleReferenceTightly) {
  const Matrix a = random_matrix(96, 64, -1, 1, 1);
  const Matrix b = random_matrix(64, 80, -1, 1, 2);
  Matrix c(96, 80);
  c.fill(0.5f);
  const Matrix d = sgemm_fp32(a, b, &c);
  const MatrixD ref = gemm_reference(a, b, &c);
  // Plain binary32 accumulation over k=64: error ~ k * 2^-24.
  EXPECT_LT(max_abs_error(ref, d), 64 * 0x1.0p-20);
}

TEST(BaselineFunctional, SdkMatchesSgemmClosely) {
  // Same math, different accumulation (mul+add vs FMA): results are close
  // but usually not identical.
  const Matrix a = random_matrix(64, 64, -1, 1, 3);
  const Matrix b = random_matrix(64, 64, -1, 1, 4);
  const Matrix s = sgemm_fp32(a, b);
  const Matrix naive = sdk_gemm_fp32(a, b);
  EXPECT_LT(max_abs_error(s, naive), 1e-4);
}

TEST(BaselineFunctional, HalfGemmHasHalfScaleError) {
  const Matrix a = random_matrix(128, 128, -1, 1, 5);
  const Matrix b = random_matrix(128, 128, -1, 1, 6);
  const MatrixD ref = gemm_reference(a, b, nullptr);
  const double err =
      max_abs_error(ref, gemm_ex(Backend::kCublasTcHalf, a, b, nullptr, {}));
  // Input quantization to 2^-11 relative over k=128 products in [-1,1]:
  // order 1e-2 (cuBLAS-TC-Half row of Fig. 7).
  EXPECT_GT(err, 1e-3);
  EXPECT_LT(err, 1e-1);
}

TEST(BaselineFunctional, MarkidisBetweenHalfAndEgemm) {
  const Matrix a = random_matrix(128, 128, -1, 1, 7);
  const Matrix b = random_matrix(128, 128, -1, 1, 8);
  const MatrixD ref = gemm_reference(a, b, nullptr);
  const double egemm_err = max_abs_error(ref, egemm_multiply(a, b));
  const double markidis_err =
      max_abs_error(ref, gemm_ex(Backend::kMarkidis, a, b, nullptr, {}));
  const double half_err =
      max_abs_error(ref, gemm_ex(Backend::kCublasTcHalf, a, b, nullptr, {}));
  EXPECT_LT(egemm_err, markidis_err);   // Fig. 7: 2.33x better on average
  EXPECT_LT(markidis_err, half_err);    // still extended-ish precision
  EXPECT_GT(half_err, 20.0 * markidis_err);
}

TEST(BaselineFunctional, TcEmulationMatchesEgemmPrecisionClass) {
  // Same algorithm, different pass structure: error magnitudes must be of
  // the same class (within 4x), though not bit-identical.
  const Matrix a = random_matrix(128, 128, -1, 1, 9);
  const Matrix b = random_matrix(128, 128, -1, 1, 10);
  const MatrixD ref = gemm_reference(a, b, nullptr);
  const double egemm_err = max_abs_error(ref, egemm_multiply(a, b));
  const double emu_err = max_abs_error(
      ref, gemm_ex(Backend::kCublasTcEmulation, a, b, nullptr, {}));
  EXPECT_LT(emu_err, 4.0 * egemm_err);
  EXPECT_LT(egemm_err, 4.0 * emu_err);
}

TEST(BaselineFunctional, DekkerIsExtendedPrecision) {
  const Matrix a = random_matrix(32, 32, -0.5, 0.5, 11);
  const Matrix b = random_matrix(32, 32, -0.5, 0.5, 12);
  const MatrixD ref = gemm_reference(a, b, nullptr);
  long ops = 0;
  const Matrix d = gemm_dekker(a, b, nullptr, &ops);
  const double half_err =
      max_abs_error(ref, gemm_ex(Backend::kCublasTcHalf, a, b, nullptr, {}));
  const double dekker_err = max_abs_error(ref, d);
  EXPECT_LT(dekker_err, half_err);
  // 16 binary16 instructions per scalar multiply-accumulate (§1).
  EXPECT_EQ(ops, 16L * 32 * 32 * 32);
}

TEST(BaselineFunctional, CAccumulationConsistency) {
  const Matrix a = random_matrix(48, 32, -1, 1, 13);
  const Matrix b = random_matrix(32, 48, -1, 1, 14);
  Matrix c(48, 48);
  c.fill(-2.0f);
  const Matrix results[] = {
      sgemm_fp32(a, b, &c),
      gemm_ex(Backend::kCublasTcHalf, a, b, &c, {.beta = 1.0f}),
      gemm_ex(Backend::kMarkidis, a, b, &c, {.beta = 1.0f}),
      gemm_ex(Backend::kCublasTcEmulation, a, b, &c, {.beta = 1.0f})};
  const MatrixD ref = gemm_reference(a, b, &c);
  for (const Matrix& result : results) {
    EXPECT_EQ(result.rows(), 48u);
    EXPECT_EQ(result.cols(), 48u);
    EXPECT_LT(max_abs_error(ref, result), 0.2);  // C actually added
  }
}

// -- timing models ------------------------------------------------------------

TEST(BaselineTiming, LargeSquareOrderingMatchesFig8And10) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  const double egemm = egemm_timing(8192, 8192, 8192, spec).tflops;
  const double fp32 = sgemm_fp32_timing(8192, 8192, 8192, spec).tflops;
  const double emu = tc_emulation_timing(8192, 8192, 8192, spec).tflops;
  const double sdk = sdk_gemm_timing(8192, 8192, 8192, spec).tflops;
  const double markidis = markidis_timing(8192, 8192, 8192, spec).tflops;
  const double half = tc_half_timing(8192, 8192, 8192, spec).tflops;
  // Fig. 8/10 ordering at large sizes.
  EXPECT_GT(egemm, emu);
  EXPECT_GT(emu, fp32);
  EXPECT_GT(fp32, sdk);
  EXPECT_GT(egemm, markidis);
  EXPECT_GT(half, egemm);  // no emulation overhead
  // Headline ratios (§7.3): 3.13x vs cuBLAS, 11.18x vs SDK, 1.35x vs
  // TC-Emulation, 3.0x vs Markidis -- within a credible band.
  EXPECT_NEAR(egemm / fp32, 3.13, 0.6);
  EXPECT_NEAR(egemm / sdk, 11.18, 2.5);
  EXPECT_NEAR(egemm / emu, 1.35, 0.25);
  EXPECT_NEAR(egemm / markidis, 3.0, 0.6);
}

TEST(BaselineTiming, SdkIsMemoryBoundAroundOneTflop) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  const double sdk = sdk_gemm_timing(8192, 8192, 8192, spec).tflops;
  EXPECT_GT(sdk, 0.7);
  EXPECT_LT(sdk, 1.6);
}

TEST(BaselineTiming, TcEmulationSplitKSlowdown) {
  // Fig. 9a: cuBLAS-TC-Emulation slows down when K exceeds
  // 4096x4096x8192, while EGEMM-TC stays consistent.
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  const double balanced = tc_emulation_timing(4096, 4096, 4096, spec).tflops;
  const double skewed = tc_emulation_timing(4096, 4096, 8192, spec).tflops;
  EXPECT_LT(skewed, 0.9 * balanced);
  const double egemm_balanced = egemm_timing(4096, 4096, 4096, spec).tflops;
  const double egemm_skewed = egemm_timing(4096, 4096, 8192, spec).tflops;
  EXPECT_GT(egemm_skewed, 0.95 * egemm_balanced);
}

TEST(BaselineTiming, WaveQuantizationHurtsSmallSizes) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  const double small = sgemm_fp32_timing(1024, 1024, 1024, spec).tflops;
  const double large = sgemm_fp32_timing(16384, 16384, 16384, spec).tflops;
  EXPECT_LT(small, large);
}

TEST(BaselineTiming, AllModelsScaleOnRtx6000) {
  const tcsim::GpuSpec rtx = tcsim::rtx6000();
  const tcsim::GpuSpec t4 = tcsim::tesla_t4();
  EXPECT_GT(sgemm_fp32_timing(8192, 8192, 8192, rtx).tflops,
            sgemm_fp32_timing(8192, 8192, 8192, t4).tflops);
  EXPECT_GT(tc_emulation_timing(8192, 8192, 8192, rtx).tflops,
            tc_emulation_timing(8192, 8192, 8192, t4).tflops);
}

}  // namespace
}  // namespace egemm::gemm
