// Regenerates Fig. 7 (emulation precision) and the artifact's §A.3
// "Precision" ratio: max error relative to a reference for EGEMM-TC,
// Markidis and cuBLAS-TC-Half across square sizes, values in [-1, +1].
//
// The paper measures error against the single-precision cuBLAS result
// (Eq. 10); we report against both that and a binary64 reference (columns
// "vs fp32" use Eq. 10 exactly). Functional sizes default to N <= 1024 on
// this CPU-bound substrate; --full extends to 2048.
#include "bench_common.hpp"
#include "fp/error_stats.hpp"
#include "gemm/baselines.hpp"
#include "gemm/gemm_api.hpp"

using namespace egemm;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto sizes = bench::sizes_from_args(args, {128, 256, 512, 1024},
                                            {128, 256, 512, 1024, 2048});
  const auto seed =
      static_cast<std::uint64_t>(args.value_or("seed", std::int64_t{7}));

  util::Table table("Fig. 7: Emulation precision, max error vs single-precision (Eq. 10)");
  table.set_header({"N (NxNxN)", "cuBLAS-TC-Half", "Markidis", "EGEMM-TC",
                    "Half/EGEMM", "Markidis/EGEMM"});

  std::vector<double> half_ratios, markidis_ratios;
  for (const std::int64_t n64 : sizes) {
    const auto n = static_cast<std::size_t>(n64);
    const gemm::Matrix a = gemm::random_matrix(n, n, -1.0f, 1.0f, seed + n);
    const gemm::Matrix b =
        gemm::random_matrix(n, n, -1.0f, 1.0f, seed + 31 * n);

    // Eq. 10 reference: the single-precision kernel's result.
    const gemm::Matrix single = gemm::sgemm_fp32(a, b);
    const double egemm_err =
        gemm::max_abs_error(single, gemm::egemm_multiply(a, b));
    const double markidis_err = gemm::max_abs_error(
        single, gemm::gemm_ex(gemm::Backend::kMarkidis, a, b, nullptr, {}));
    const double half_err = gemm::max_abs_error(
        single,
        gemm::gemm_ex(gemm::Backend::kCublasTcHalf, a, b, nullptr, {}));

    half_ratios.push_back(half_err / egemm_err);
    markidis_ratios.push_back(markidis_err / egemm_err);
    table.add_row({std::to_string(n), util::fmt_sci(half_err, 2),
                   util::fmt_sci(markidis_err, 2),
                   util::fmt_sci(egemm_err, 2),
                   util::fmt_fixed(half_err / egemm_err, 1),
                   util::fmt_fixed(markidis_err / egemm_err, 2)});
  }
  table.add_footnote("paper: EGEMM-TC reduces max error by ~350x vs "
                     "cuBLAS-TC-Half and ~2.33x vs Markidis on average");
  table.add_footnote("mean over sizes: Half/EGEMM = " +
                     util::fmt_fixed(bench::geomean(half_ratios), 1) +
                     ", Markidis/EGEMM = " +
                     util::fmt_fixed(bench::geomean(markidis_ratios), 2));
  table.print(std::cout);

  // Artifact §A.3 "Precision" block at N = 1024.
  {
    const std::size_t n = 1024;
    const gemm::Matrix a = gemm::random_matrix(n, n, -1.0f, 1.0f, seed + 1);
    const gemm::Matrix b = gemm::random_matrix(n, n, -1.0f, 1.0f, seed + 2);
    const gemm::Matrix single = gemm::sgemm_fp32(a, b);
    const double emu = gemm::max_abs_error(single, gemm::egemm_multiply(a, b));
    const double half = gemm::max_abs_error(
        single,
        gemm::gemm_ex(gemm::Backend::kCublasTcHalf, a, b, nullptr, {}));
    std::printf("m*n*k: %zu.\n", n);
    std::printf("max Emulation Error: %.8f\n", emu);
    std::printf("max Half cuBLAS Error: %.8f\n", half);
    std::printf("Ratio (Max_Emulation_Error/Max_Half_cuBLAS_Error): %.8f\n",
                emu / half);
    std::printf("(artifact reports ~0.0019, i.e. error reduced by >500x)\n");
  }
  return 0;
}
