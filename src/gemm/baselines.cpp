#include "gemm/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "core/emulation.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace egemm::gemm {

namespace {

/// Shared roofline + wave-quantization timing for the CUDA-level baseline
/// kernels (these are not the paper's contribution, so they are modeled at
/// kernel granularity rather than instruction granularity).
///
/// `dram_bytes` is the compulsory traffic (each matrix streamed once);
/// `l2_bytes` is the tile re-read traffic that blocked kernels serve from
/// L2 (Table 3 budgets L2 separately from DRAM for exactly this reason).
KernelTiming roofline_timing(const tcsim::GpuSpec& spec, double flops,
                             double dram_bytes, double l2_bytes,
                             double efficiency, double peak_tflops,
                             std::uint64_t blocks, int launches) {
  KernelTiming timing;
  const double t_compute = flops / (efficiency * peak_tflops * 1e12);
  const double t_memory =
      std::max(dram_bytes / (spec.dram_bandwidth_gbps * 1e9),
               l2_bytes / (spec.l2_bandwidth_gbps * 1e9));
  double core = std::max(t_compute, t_memory);
  if (blocks > 0) {
    const double waves_exact =
        static_cast<double>(blocks) / static_cast<double>(spec.sm_count);
    core *= std::ceil(waves_exact) / waves_exact;  // tail-wave quantization
    timing.waves = static_cast<std::uint32_t>(std::ceil(waves_exact));
  }
  timing.blocks = blocks;
  timing.seconds = core + launches * spec.kernel_launch_us * 1e-6;
  return timing;
}

std::uint64_t tile_grid(std::uint64_t m, std::uint64_t n, std::uint64_t tm,
                        std::uint64_t tn) {
  return ((m + tm - 1) / tm) * ((n + tn - 1) / tn);
}

double dbl(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

// ---------------------------------------------------------------------------
// Functional paths
// ---------------------------------------------------------------------------

void sgemm_fp32_into(const Matrix& a, const Matrix& b, const Matrix* c,
                     Matrix& d) {
  EGEMM_EXPECTS(a.cols() == b.rows());
  const std::size_t m = a.rows(), n = b.cols(), k = a.cols();
  d.resize(m, n);
  if (c != nullptr) {
    EGEMM_EXPECTS(c->rows() == m && c->cols() == n);
    std::copy(c->data().begin(), c->data().end(), d.data().begin());
  } else {
    d.fill(0.0f);
  }
  // FMA accumulation, k-outer cache blocking -- the numerics of a vendor
  // binary32 kernel.
  util::global_pool().parallel_for(m, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* drow = d.row(i);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = a.at(i, kk);
        const float* brow = b.row(kk);
        for (std::size_t j = 0; j < n; ++j) {
          drow[j] = std::fmaf(av, brow[j], drow[j]);
        }
      }
    }
  });
}

Matrix sgemm_fp32(const Matrix& a, const Matrix& b, const Matrix* c) {
  Matrix d;
  sgemm_fp32_into(a, b, c, d);
  return d;
}

void sdk_gemm_fp32_into(const Matrix& a, const Matrix& b, Matrix& d) {
  EGEMM_EXPECTS(a.cols() == b.rows());
  const std::size_t m = a.rows(), n = b.cols(), k = a.cols();
  d.resize(m, n);
  d.fill(0.0f);
  // Separate multiply and add (the SDK sample predates pervasive FMA).
  util::global_pool().parallel_for(m, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* drow = d.row(i);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = a.at(i, kk);
        const float* brow = b.row(kk);
        for (std::size_t j = 0; j < n; ++j) {
          drow[j] = drow[j] + av * brow[j];
        }
      }
    }
  });
}

Matrix sdk_gemm_fp32(const Matrix& a, const Matrix& b) {
  Matrix d;
  sdk_gemm_fp32_into(a, b, d);
  return d;
}

void gemm_dekker_into(const Matrix& a, const Matrix& b, const Matrix* c,
                      Matrix& d, long* instruction_count) {
  EGEMM_EXPECTS(a.cols() == b.rows());
  const std::size_t m = a.rows(), n = b.cols(), k = a.cols();
  d.resize(m, n);

  constexpr std::size_t kT = 16;
  long ops = 0;
  for (std::size_t i0 = 0; i0 < m; i0 += kT) {
    for (std::size_t j0 = 0; j0 < n; j0 += kT) {
      tcsim::FragmentAcc acc;
      acc.fill(0.0f);
      if (c != nullptr) {
        for (std::size_t i = i0; i < std::min(m, i0 + kT); ++i) {
          for (std::size_t j = j0; j < std::min(n, j0 + kT); ++j) {
            acc.at(static_cast<int>(i - i0), static_cast<int>(j - j0)) =
                c->at(i, j);
          }
        }
      }
      for (std::size_t k0 = 0; k0 < k; k0 += kT) {
        core::FragmentF32 atile;
        core::FragmentF32B btile;
        atile.fill(0.0f);
        btile.fill(0.0f);
        for (std::size_t i = i0; i < std::min(m, i0 + kT); ++i) {
          for (std::size_t kk = k0; kk < std::min(k, k0 + kT); ++kk) {
            atile.at(static_cast<int>(i - i0), static_cast<int>(kk - k0)) =
                a.at(i, kk);
          }
        }
        for (std::size_t kk = k0; kk < std::min(k, k0 + kT); ++kk) {
          for (std::size_t j = j0; j < std::min(n, j0 + kT); ++j) {
            btile.at(static_cast<int>(kk - k0), static_cast<int>(j - j0)) =
                b.at(kk, j);
          }
        }
        core::dekker_mma_tile(acc, atile, btile, acc, &ops);
      }
      for (std::size_t i = i0; i < std::min(m, i0 + kT); ++i) {
        for (std::size_t j = j0; j < std::min(n, j0 + kT); ++j) {
          d.at(i, j) =
              acc.at(static_cast<int>(i - i0), static_cast<int>(j - j0));
        }
      }
    }
  }
  if (instruction_count != nullptr) *instruction_count += ops;
}

Matrix gemm_dekker(const Matrix& a, const Matrix& b, const Matrix* c,
                   long* instruction_count) {
  Matrix d;
  gemm_dekker_into(a, b, c, d, instruction_count);
  return d;
}

// ---------------------------------------------------------------------------
// Timing models
// ---------------------------------------------------------------------------

KernelTiming sgemm_fp32_timing(std::uint64_t m, std::uint64_t n,
                               std::uint64_t k, const tcsim::GpuSpec& spec) {
  // cublasSgemm: ~52% of FP32 peak sustained on Turing, 128x64 block tiles.
  const double flops = 2.0 * dbl(m) * dbl(n) * dbl(k);
  const double dram_bytes =
      4.0 * (dbl(m) * dbl(k) + dbl(k) * dbl(n) + 2.0 * dbl(m) * dbl(n));
  const double l2_bytes = 4.0 * (dbl(m) * dbl(k) * dbl(n) / 64.0 +
                                 dbl(k) * dbl(n) * dbl(m) / 128.0);
  KernelTiming t = roofline_timing(spec, flops, dram_bytes, l2_bytes, 0.52,
                                   spec.peak_fp32_tflops,
                                   tile_grid(m, n, 128, 64), 1);
  t.tflops = gemm_tflops(m, n, k, t.seconds);
  return t;
}

KernelTiming sdk_gemm_timing(std::uint64_t m, std::uint64_t n,
                             std::uint64_t k, const tcsim::GpuSpec& spec) {
  // CUDA-SDK matrixMul: 16x16 shared-memory tiles, so every input element
  // is re-read from DRAM/L2 once per 16-wide tile -- firmly memory bound.
  const double flops = 2.0 * dbl(m) * dbl(n) * dbl(k);
  // 16-wide tiles re-stream everything; the working set blows past L2, so
  // the re-reads mostly hit DRAM.
  const double dram_bytes = 8.0 * dbl(m) * dbl(n) * dbl(k) / 16.0;
  KernelTiming t =
      roofline_timing(spec, flops, dram_bytes, 0.0, 0.13,
                      spec.peak_fp32_tflops, tile_grid(m, n, 16, 16), 1);
  t.tflops = gemm_tflops(m, n, k, t.seconds);
  return t;
}

KernelTiming tc_half_timing(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                            const tcsim::GpuSpec& spec) {
  // cublasGemmEx FP16 in / FP32 out: ~60% of Tensor Core peak.
  const double flops = 2.0 * dbl(m) * dbl(n) * dbl(k);
  const double dram_bytes =
      2.0 * (dbl(m) * dbl(k) + dbl(k) * dbl(n)) + 4.0 * dbl(m) * dbl(n);
  const double l2_bytes = 2.0 * (dbl(m) * dbl(k) * dbl(n) / 128.0 +
                                 dbl(k) * dbl(n) * dbl(m) / 128.0);
  KernelTiming t = roofline_timing(spec, flops, dram_bytes, l2_bytes, 0.60,
                                   spec.peak_fp16_tc_tflops,
                                   tile_grid(m, n, 128, 128), 1);
  t.tflops = gemm_tflops(m, n, k, t.seconds);
  return t;
}

KernelTiming tc_emulation_timing(std::uint64_t m, std::uint64_t n,
                                 std::uint64_t k,
                                 const tcsim::GpuSpec& spec) {
  // Algorithm 1 as 4 independent cublasGemmEx calls: each call re-reads the
  // half planes and reads+writes the binary32 D (beta = 1 accumulation);
  // large K triggers cuBLAS' split-K kernels whose partial-sum workspace
  // traffic erodes efficiency (the Fig. 9a slowdown).
  const double flops_per_call = 2.0 * dbl(m) * dbl(n) * dbl(k);
  double efficiency = 0.55;
  const std::uint64_t split_k = k > 4096 ? (k + 4095) / 4096 : 1;
  double extra_dram = 0.0;
  if (split_k > 1 && k >= 2 * std::max(m, n)) {
    // Partial results written and re-read once per extra split.
    extra_dram = dbl(split_k) * 8.0 * dbl(m) * dbl(n);
    efficiency *= 0.72;
  }
  const double dram_per_call = 2.0 * (dbl(m) * dbl(k) + dbl(k) * dbl(n)) +
                               8.0 * dbl(m) * dbl(n) + extra_dram;
  const double l2_per_call = 2.0 * (dbl(m) * dbl(k) * dbl(n) / 128.0 +
                                    dbl(k) * dbl(n) * dbl(m) / 128.0);

  KernelTiming call = roofline_timing(
      spec, flops_per_call, dram_per_call, l2_per_call, efficiency,
      spec.peak_fp16_tc_tflops, tile_grid(m, n, 128, 128), 1);
  KernelTiming t;
  t.blocks = call.blocks;
  t.waves = call.waves;
  // Split pass (same as EGEMM-TC's) + 4 GEMM calls.
  t.split_pass_seconds =
      8.0 * (dbl(m) * dbl(k) + dbl(k) * dbl(n)) /
          (spec.dram_bandwidth_gbps * 1e9) +
      spec.kernel_launch_us * 1e-6;
  t.seconds = 4.0 * call.seconds + t.split_pass_seconds;
  t.tflops = gemm_tflops(m, n, k, t.seconds);
  return t;
}

KernelTiming markidis_timing(std::uint64_t m, std::uint64_t n,
                             std::uint64_t k, const tcsim::GpuSpec& spec) {
  // CUDA-level wmma emulation: 3 tile products, no FRAG caching and no
  // instruction-level scheduling, so only ~20% of Tensor Core peak is
  // reachable (§7.3 attributes this to the CUDA programming interface).
  const double flops = 3.0 * 2.0 * dbl(m) * dbl(n) * dbl(k);
  const double dram_bytes =
      2.0 * 2.0 * (dbl(m) * dbl(k) + dbl(k) * dbl(n)) + 4.0 * dbl(m) * dbl(n);
  const double l2_bytes = 2.0 * 2.0 * (dbl(m) * dbl(k) * dbl(n) / 64.0 +
                                       dbl(k) * dbl(n) * dbl(m) / 64.0);
  KernelTiming t = roofline_timing(spec, flops, dram_bytes, l2_bytes, 0.20,
                                   spec.peak_fp16_tc_tflops,
                                   tile_grid(m, n, 64, 64), 1);
  t.split_pass_seconds =
      8.0 * (dbl(m) * dbl(k) + dbl(k) * dbl(n)) /
      (spec.dram_bandwidth_gbps * 1e9);
  t.seconds += t.split_pass_seconds;
  t.tflops = gemm_tflops(m, n, k, t.seconds);
  return t;
}

}  // namespace egemm::gemm
