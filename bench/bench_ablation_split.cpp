// Ablation (DESIGN.md §4): round-split vs truncate-split inside the same
// 4-instruction algorithm, plus the Dekker baseline's overhead -- isolating
// the contribution of the Fig. 4b split from the rest of EGEMM-TC.
#include "bench_common.hpp"
#include "core/emulation.hpp"
#include "fp/error_stats.hpp"
#include "gemm/baselines.hpp"
#include "gemm/plan.hpp"

using namespace egemm;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto seed =
      static_cast<std::uint64_t>(args.value_or("seed", std::int64_t{9}));
  const auto sizes =
      bench::sizes_from_args(args, {128, 256, 512}, {128, 256, 512, 1024});

  util::Table table(
      "Ablation: data-split method inside Alg. 1 (error vs binary64 "
      "reference)");
  table.set_header({"N (NxNx32)", "round-split mean", "truncate-split mean",
                    "ratio", "round max", "truncate max"});
  for (const std::int64_t n64 : sizes) {
    const auto n = static_cast<std::size_t>(n64);
    // k = 32 keeps the split's representation error visible above the
    // fp32 accumulation noise (EXPERIMENTS.md discusses the large-k
    // convergence of the two methods' max errors).
    const gemm::Matrix a = gemm::random_matrix(n, 32, -1, 1, seed + n);
    const gemm::Matrix b = gemm::random_matrix(32, n, -1, 1, seed + 2 * n);
    const gemm::MatrixD ref = gemm::gemm_reference(a, b, nullptr);

    gemm::EgemmOptions trunc;
    trunc.split = core::SplitMethod::kTruncateSplit;
    const gemm::Matrix round_d = gemm::egemm_multiply(a, b);
    const gemm::Matrix trunc_d = gemm::egemm_multiply(a, b, nullptr, trunc);
    const fp::ErrorStats round_stats =
        fp::compare(ref.data(), round_d.data());
    const fp::ErrorStats trunc_stats =
        fp::compare(ref.data(), trunc_d.data());
    table.add_row({std::to_string(n),
                   util::fmt_sci(round_stats.mean_abs(), 2),
                   util::fmt_sci(trunc_stats.mean_abs(), 2),
                   util::fmt_fixed(trunc_stats.mean_abs() /
                                       round_stats.mean_abs(), 2),
                   util::fmt_sci(round_stats.max_abs, 2),
                   util::fmt_sci(trunc_stats.max_abs, 2)});
  }
  table.add_footnote("paper §2.2: round-split buys 1 extra mantissa bit "
                     "(~2x lower representation error)");
  table.print(std::cout);

  {
    // Emulation overhead comparison (§3.2 "Emulation Overhead").
    util::Table overhead("Emulation overhead per tile MMA");
    overhead.set_header({"algorithm", "specialized-core instructions",
                         "relative"});
    overhead.add_row({"EGEMM-TC (Alg. 1)",
                      std::to_string(core::kEgemmInstructions), "1.0x"});
    overhead.add_row({"Markidis", std::to_string(core::kMarkidisInstructions),
                      "0.75x"});
    overhead.add_row({"three-way split (ablation)", "9", "2.25x"});
    overhead.add_row({"Dekker", std::to_string(core::kDekkerInstructions),
                      "4.0x"});
    overhead.add_footnote(
        "Dekker counts binary16 instructions per scalar multiply-accumulate "
        "(§1: 16 instructions -> inappropriate given the 8x TC/CUDA ratio)");
    overhead.print(std::cout);
  }

  {
    // Negative result: going past the two-way split buys nothing under a
    // binary32 accumulator (see the recovery-3term rung in core/scheme.hpp
    // for the analysis).
    const std::size_t n = 256;
    const gemm::Matrix a = gemm::random_matrix(n, 64, -1, 1, seed + 77);
    const gemm::Matrix b = gemm::random_matrix(64, n, -1, 1, seed + 78);
    const gemm::Matrix alg1 = gemm::egemm_multiply(a, b);
    gemm::GemmContext& ctx = gemm::default_context();
    gemm::Matrix three;
    ctx.plan_scheme(core::SchemeId::kRecovery3, n, n, 64)
        ->execute(ctx, a, b, nullptr, three);
    const double diff = gemm::max_abs_error(alg1, three);
    const tcsim::GpuSpec t4 = tcsim::tesla_t4();
    util::Table ablation("Ablation: three-way split (9 instructions) vs Alg. 1");
    ablation.set_header({"metric", "value"});
    ablation.add_row({"max |D_3split - D_alg1| at 256x256x64",
                      util::fmt_sci(diff, 2)});
    ablation.add_row({"modeled TFLOPS (Alg. 1, 8192^3, T4)",
                      util::fmt_fixed(
                          gemm::egemm_timing(8192, 8192, 8192, t4).tflops, 2)});
    ablation.add_row({"modeled TFLOPS (3-split, 8192^3, T4)",
                      util::fmt_fixed(
                          ctx.plan_scheme(core::SchemeId::kRecovery3, 8192,
                                          8192, 8192)
                              ->timing(t4)
                              .tflops,
                          2)});
    ablation.add_footnote(
        "identical results at 2.25x the Tensor Core work: past 21 bits the "
        "bottleneck is the fp32 accumulator, not the operand split");
    ablation.print(std::cout);
  }
  return 0;
}
