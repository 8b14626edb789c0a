// End-to-end integration tests across modules: the full EGEMM-TC story
// from profiling through emulation, tensorization, model selection and
// application acceleration.
#include <cmath>

#include <gtest/gtest.h>

#include "apps/app_timing.hpp"
#include "apps/dataset.hpp"
#include "apps/knn.hpp"
#include "core/profiling.hpp"
#include "fp/error_stats.hpp"
#include "gemm/gemm_api.hpp"
#include "model/solver.hpp"

namespace egemm {
namespace {

TEST(Integration, ProfilingLicensesTheEmulationDesign) {
  // Step 1 of the workflow: certify >= 21-bit operation precision...
  core::ProfilingConfig config;
  config.trials = 3000;
  const core::ProfilingReport report = core::profile_tensor_core(config);
  ASSERT_TRUE(report.certified());
  ASSERT_GE(report.certified_mantissa_bits, 21);

  // ...step 2: the 4-instruction design built on it delivers extended
  // precision end to end.
  const gemm::Matrix a = gemm::random_matrix(128, 128, -1, 1, 61);
  const gemm::Matrix b = gemm::random_matrix(128, 128, -1, 1, 62);
  const gemm::MatrixD ref = gemm::gemm_reference(a, b, nullptr);
  const double err = gemm::max_abs_error(ref, gemm::egemm_multiply(a, b));
  // 128 products of magnitude <= 1 with ~2^-21-accurate operands.
  EXPECT_LT(err, 128 * 0x1.0p-19);
}

TEST(Integration, Fig7ErrorOrderingAcrossSizes) {
  // The Fig. 7 series at functional-test scale: EGEMM-TC beats Markidis on
  // the mean element error at every size (the max errors converge at large
  // k, where fp32 accumulation noise dominates both -- Fig. 7 itself shows
  // the two nearly equal at N=128), and both are orders of magnitude below
  // cuBLAS-TC-Half.
  double prev_egemm = 0.0;
  for (const std::size_t n : {64u, 128u, 256u}) {
    const gemm::Matrix a = gemm::random_matrix(n, n, -1, 1, 70 + n);
    const gemm::Matrix b = gemm::random_matrix(n, n, -1, 1, 71 + n);
    const gemm::MatrixD ref = gemm::gemm_reference(a, b, nullptr);
    const gemm::Matrix egemm_d = gemm::egemm_multiply(a, b);
    const gemm::Matrix markidis_d =
        gemm::gemm_ex(gemm::Backend::kMarkidis, a, b, nullptr, {});
    const double egemm_err = gemm::max_abs_error(ref, egemm_d);
    const double markidis_err = gemm::max_abs_error(ref, markidis_d);
    const double half_err =
        gemm::max_abs_error(ref, gemm::gemm_ex(gemm::Backend::kCublasTcHalf,
                                               a, b, nullptr, {}));
    const double egemm_mean =
        fp::compare(ref.data(), egemm_d.data()).mean_abs();
    const double markidis_mean =
        fp::compare(ref.data(), markidis_d.data()).mean_abs();
    EXPECT_LT(egemm_mean, markidis_mean) << n;
    EXPECT_LT(egemm_err, markidis_err * 1.25) << n;
    EXPECT_LT(markidis_err, half_err) << n;
    EXPECT_GT(half_err / egemm_err, 50.0) << n;  // paper reports ~350x
    EXPECT_GE(egemm_err, prev_egemm * 0.5) << n;  // grows (noisily) with N
    prev_egemm = egemm_err;
  }
}

TEST(Integration, SolverChoiceBeatsPerturbedTilings) {
  // The ablation DESIGN.md promises: the analytic model's pick is at least
  // as fast (in the cycle model) as its feasible neighbors.
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  const model::SolverResult solved =
      model::solve(model::budget_from_spec(spec));
  ASSERT_TRUE(solved.found);

  gemm::EgemmOptions best_opts;
  best_opts.tile = solved.best;
  const double best = gemm::egemm_timing(8192, 8192, 8192, spec, best_opts)
                          .tflops;
  for (const model::SolverCandidate& alt : solved.feasible) {
    gemm::EgemmOptions opts;
    opts.tile = alt.config;
    const gemm::KernelTiming t =
        gemm::egemm_timing(8192, 8192, 8192, spec, opts);
    if (!t.feasible) continue;
    EXPECT_GE(best, 0.95 * t.tflops) << alt.config.describe();
  }
  // Also against tilings the model rejected for low intensity: even with
  // multiple blocks per SM sharing ports, they must not win.
  for (const gemm::TileConfig& rejected :
       {gemm::TileConfig{64, 64, 32, 32, 32, 8},
        gemm::TileConfig{64, 128, 32, 32, 32, 8}}) {
    gemm::EgemmOptions opts;
    opts.tile = rejected;
    const gemm::KernelTiming t =
        gemm::egemm_timing(8192, 8192, 8192, spec, opts);
    if (!t.feasible) continue;
    EXPECT_GE(best, t.tflops) << rejected.describe();
  }
}

TEST(Integration, Fig8OrderingHoldsAcrossAllSizesAndGpus) {
  for (const char* gpu : {"t4", "rtx6000"}) {
    const tcsim::GpuSpec spec = tcsim::spec_by_name(gpu);
    for (const std::uint64_t n : {1024u, 2048u, 4096u, 8192u, 16384u}) {
      const double egemm =
          gemm::time_gemm(gemm::Backend::kEgemmTC, n, n, n, spec).tflops;
      const double emu =
          gemm::time_gemm(gemm::Backend::kCublasTcEmulation, n, n, n, spec)
              .tflops;
      const double fp32 =
          gemm::time_gemm(gemm::Backend::kCublasFp32, n, n, n, spec).tflops;
      EXPECT_GT(egemm, emu) << gpu << " " << n;
      EXPECT_GT(emu, fp32) << gpu << " " << n;
    }
  }
}

TEST(Integration, EndToEndKnnWithEgemmMatchesOracle) {
  // Functional application path: build the app on the EGEMM backend and
  // verify results against brute force; then check the modeled speedup.
  const apps::PointCloud refs = apps::uniform_cloud(384, 32, -1, 1, 81);
  const apps::PointCloud queries = apps::uniform_cloud(96, 32, -1, 1, 82);
  apps::KnnOptions opts;
  opts.k = 5;
  const apps::KnnResult fast =
      apps::knn_search(queries.points, refs.points, opts);
  const apps::KnnResult oracle =
      apps::knn_bruteforce(queries.points, refs.points, 5);
  EXPECT_GE(apps::knn_agreement(fast, oracle), 0.97);

  apps::KnnWorkload workload;
  workload.references = workload.queries = 8192;
  const double speedup =
      apps::knn_timing(workload, gemm::Backend::kCublasFp32,
                       tcsim::tesla_t4())
          .total_seconds /
      apps::knn_timing(workload, gemm::Backend::kEgemmTC,
                       tcsim::tesla_t4())
          .total_seconds;
  EXPECT_GT(speedup, 1.3);  // §7.5: ~1.7x average on kNN
}

TEST(Integration, HeadlineAveragesOverPaperSizes) {
  // §7.3: 3.13x over cuBLAS and 11.18x over SDK averaged over sizes.
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  double cublas_ratio = 0.0, sdk_ratio = 0.0;
  const std::uint64_t sizes[] = {1024, 2048, 4096, 8192, 16384};
  for (const std::uint64_t n : sizes) {
    const double egemm =
        gemm::time_gemm(gemm::Backend::kEgemmTC, n, n, n, spec).tflops;
    cublas_ratio +=
        egemm /
        gemm::time_gemm(gemm::Backend::kCublasFp32, n, n, n, spec).tflops;
    sdk_ratio +=
        egemm / gemm::time_gemm(gemm::Backend::kSdkFp32, n, n, n, spec).tflops;
  }
  cublas_ratio /= 5.0;
  sdk_ratio /= 5.0;
  EXPECT_NEAR(cublas_ratio, 3.13, 0.7);
  EXPECT_NEAR(sdk_ratio, 11.18, 3.0);
}

}  // namespace
}  // namespace egemm
