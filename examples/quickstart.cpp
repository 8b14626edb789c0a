// Quickstart: extended-precision GEMM on the (simulated) Tensor Core in a
// dozen lines.
//
//   build/examples/quickstart [--n=512] [--trace=out.json] [--metrics]
//              [--metrics-format=json|openmetrics] [--metrics-out=FILE]
//
// --trace=PATH records the pipeline spans (split/pack/mma/combine) and
// writes a Chrome trace_event JSON; --metrics dumps the observability
// registry at exit; --metrics-format exports the registry machine-readably
// (to stdout, or to --metrics-out=FILE for a Prometheus scrape target).
//
// 1. make two binary32 matrices,
// 2. multiply them with EGEMM-TC (Algorithm 1: round-split + 4 Tensor Core
//    instructions per tile),
// 3. compare the error against plain half-precision Tensor Core compute,
// 4. ask the performance model what this costs on a Tesla T4.
#include <cstdio>
#include <iostream>
#include <string>

#include "gemm/gemm_api.hpp"
#include "obs/export.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace egemm;
  const util::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.value_or("n", std::int64_t{512}));
  const std::string trace_path = args.value_or("trace", std::string());
  obs::MetricsFormat metrics_format = obs::MetricsFormat::kJson;
  bool export_metrics = false;
  if (args.has_flag("metrics-format")) {
    const std::string text =
        args.value_or("metrics-format", std::string("json"));
    if (!obs::parse_metrics_format(text, metrics_format)) {
      std::fprintf(stderr,
                   "quickstart: unknown --metrics-format '%s' "
                   "(expected json or openmetrics)\n",
                   text.c_str());
      return 1;
    }
    export_metrics = true;
  }
  obs::set_thread_name("main");
  if (!trace_path.empty()) obs::set_tracing(true);

  // Random inputs in [-1, +1], the paper's evaluation distribution.
  const gemm::Matrix a = gemm::random_matrix(n, n, -1.0f, 1.0f, /*seed=*/1);
  const gemm::Matrix b = gemm::random_matrix(n, n, -1.0f, 1.0f, /*seed=*/2);

  // The one-call public API. Everything else (split, tensorization, FRAG
  // caching) happens behind it.
  const gemm::Matrix d = gemm::egemm_multiply(a, b);

  // How good is it? Compare against a binary64 reference, next to the two
  // obvious alternatives.
  const gemm::MatrixD reference = gemm::gemm_reference(a, b, nullptr);
  const double egemm_err = gemm::max_abs_error(reference, d);
  const double half_err = gemm::max_abs_error(
      reference,
      gemm::gemm_ex(gemm::Backend::kCublasTcHalf, a, b, nullptr, {}));
  const double fp32_err =
      gemm::max_abs_error(reference, gemm::sgemm_fp32(a, b));

  std::printf("N = %zu, max error vs binary64 reference:\n", n);
  std::printf("  EGEMM-TC (extended precision): %.3e\n", egemm_err);
  std::printf("  cuBLAS-TC-Half (what naive TC use gets): %.3e  (%.0fx worse)\n",
              half_err, half_err / egemm_err);
  std::printf("  cuBLAS-CUDA-FP32 (the precision target): %.3e\n\n", fp32_err);

  // What would it cost on real hardware? Ask the calibrated model.
  const tcsim::GpuSpec t4 = tcsim::tesla_t4();
  const std::uint64_t big = 8192;
  const gemm::KernelTiming egemm_t =
      gemm::time_gemm(gemm::Backend::kEgemmTC, big, big, big, t4);
  const gemm::KernelTiming fp32_t =
      gemm::time_gemm(gemm::Backend::kCublasFp32, big, big, big, t4);
  std::printf("modeled on %s at %llu^3:\n", t4.name.c_str(),
              static_cast<unsigned long long>(big));
  std::printf("  EGEMM-TC:         %6.2f TFLOPS (%.1f ms)\n", egemm_t.tflops,
              egemm_t.seconds * 1e3);
  std::printf("  cuBLAS-CUDA-FP32: %6.2f TFLOPS (%.1f ms)  -> %.2fx speedup\n",
              fp32_t.tflops, fp32_t.seconds * 1e3,
              egemm_t.tflops / fp32_t.tflops);
  std::printf(
      "\nSame (extended) precision as CUDA-core FP32 GEMM, Tensor Core "
      "speed.\n");

  if (!trace_path.empty()) {
    obs::set_tracing(false);
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "quickstart: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("wrote Chrome trace to %s (load in chrome://tracing)\n",
                trace_path.c_str());
  }
  if (args.has_flag("metrics")) obs::dump_metrics(std::cout);
  if (export_metrics) {
    const std::string metrics_out =
        args.value_or("metrics-out", std::string());
    if (!obs::write_metrics(metrics_out, metrics_format)) {
      std::fprintf(stderr, "quickstart: cannot write metrics export%s%s\n",
                   metrics_out.empty() ? "" : " to ",
                   metrics_out.c_str());
      return 1;
    }
    if (!metrics_out.empty()) {
      std::printf("wrote metrics export to %s\n", metrics_out.c_str());
    }
  }
  return 0;
}
