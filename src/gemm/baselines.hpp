#pragma once
// The baseline kernels of Table 5, as functional implementations (real
// numerics) and calibrated timing models (simulated TFLOPS).
//
//   cuBLAS-CUDA-FP32      cublasSgemm on CUDA cores (binary32, FMA)
//   cuBLAS-TC-Half        cublasGemmEx, binary16 inputs on Tensor Cores
//   cuBLAS-TC-Emulation   Alg. 1 expressed as 4 separate cublasGemmEx calls
//   SDK-CUDA-FP32         the CUDA-SDK matrixMul sample (naive 16x16 tiles)
//   Markidis              truncate-split, 3 wmma products, CUDA-level code
//   Dekker                classical 16-instruction half-only emulation
//
// Only the binary32 and Dekker kernels live here: the direct plans
// (gemm/plan.hpp) execute them. The three emulated baselines are recipes
// of the packed engine -- GemmContext::plan maps cuBLAS-TC-Half and
// Markidis to their ladder rungs and cuBLAS-TC-Emulation to Alg. 1 as
// separate passes -- and run through gemm_ex like any other backend.

#include <cstdint>

#include "gemm/egemm.hpp"
#include "gemm/matrix.hpp"
#include "tcsim/gpu_spec.hpp"

namespace egemm::gemm {

// -- functional paths --------------------------------------------------------

/// cublasSgemm stand-in: binary32 GEMM with FMA accumulation.
Matrix sgemm_fp32(const Matrix& a, const Matrix& b, const Matrix* c = nullptr);

/// sgemm_fp32 into caller-owned `d` (resized in place; allocation-free at
/// steady-state capacity). The direct plans (gemm/plan.hpp) execute these.
void sgemm_fp32_into(const Matrix& a, const Matrix& b, const Matrix* c,
                     Matrix& d);

/// CUDA-SDK matrixMul stand-in: binary32, separate multiply and add.
Matrix sdk_gemm_fp32(const Matrix& a, const Matrix& b);

/// sdk_gemm_fp32 into caller-owned `d`.
void sdk_gemm_fp32_into(const Matrix& a, const Matrix& b, Matrix& d);

/// Dekker 16-instruction half-only emulation (slow; small sizes).
/// `instruction_count`, when non-null, accumulates emitted binary16 ops.
Matrix gemm_dekker(const Matrix& a, const Matrix& b,
                   const Matrix* c = nullptr,
                   long* instruction_count = nullptr);

/// gemm_dekker into caller-owned `d`.
void gemm_dekker_into(const Matrix& a, const Matrix& b, const Matrix* c,
                      Matrix& d, long* instruction_count = nullptr);

// -- timing models -----------------------------------------------------------

KernelTiming sgemm_fp32_timing(std::uint64_t m, std::uint64_t n,
                               std::uint64_t k, const tcsim::GpuSpec& spec);
KernelTiming sdk_gemm_timing(std::uint64_t m, std::uint64_t n,
                             std::uint64_t k, const tcsim::GpuSpec& spec);
KernelTiming tc_half_timing(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                            const tcsim::GpuSpec& spec);
KernelTiming tc_emulation_timing(std::uint64_t m, std::uint64_t n,
                                 std::uint64_t k, const tcsim::GpuSpec& spec);
KernelTiming markidis_timing(std::uint64_t m, std::uint64_t n,
                             std::uint64_t k, const tcsim::GpuSpec& spec);

}  // namespace egemm::gemm
