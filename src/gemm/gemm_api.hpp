#pragma once
// Unified backend registry: every kernel of Table 5 behind one functional
// and one timed entry point. The benchmark harness and the applications
// select kernels through this API.
//
// Functional calls come in two shapes -- one GEMM (gemm_ex) and a group
// of GEMMs (gemm_grouped) -- each on a chosen backend or under an accuracy
// contract. All of them plan through a GemmContext (gemm/plan.hpp) and
// run on the same execute pipeline, so a one-shot call and a held plan
// produce the same bits. Only the backend gemm_ex has a form that plans
// against default_context().

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "gemm/baselines.hpp"
#include "gemm/egemm.hpp"

namespace egemm::gemm {

class GemmContext;  // gemm/plan.hpp: plan cache + reusable workspaces

enum class Backend {
  kEgemmTC,            ///< this paper (Alg. 1 + §4/§5 optimizations)
  kCublasFp32,         ///< cuBLAS-CUDA-FP32
  kCublasTcHalf,       ///< cuBLAS-TC-Half
  kCublasTcEmulation,  ///< cuBLAS-TC-Emulation
  kSdkFp32,            ///< SDK-CUDA-FP32
  kMarkidis,           ///< Markidis [20]
  kDekker,             ///< Dekker [7] (functional + schedule model only)
};

const char* backend_name(Backend backend) noexcept;
std::vector<Backend> all_backends();

/// Simulated execution time/TFLOPS of the backend on `spec`.
/// Backend::kDekker is timed as an EGEMM schedule with 16 emulation
/// instructions (a Dekker-style Tensor Core schedule), since the original
/// CPU algorithm has no GPU kernel to model.
KernelTiming time_gemm(Backend backend, std::uint64_t m, std::uint64_t n,
                       std::uint64_t k, const tcsim::GpuSpec& spec);

// -- BLAS-style extended entry point -----------------------------------------

enum class Transpose { kNone, kTranspose };

/// cublasSgemm-style parameters: D = alpha * op(A) x op(B) + beta * C.
struct GemmExParams {
  Transpose trans_a = Transpose::kNone;
  Transpose trans_b = Transpose::kNone;
  float alpha = 1.0f;
  float beta = 0.0f;
};

/// BLAS-style GEMM on any backend's numerics. Dimensions follow the ops:
/// with trans_a, A is stored k x m; with trans_b, B is stored n x k, and
/// an emulated backend's pack fill reads it as stored (no transposed copy;
/// the direct binary32 backends copy it first). When
/// alpha == 1 and beta is 0 or 1 the accumulation happens inside the
/// kernel (exactly plan(backend, ...)->execute with C on the accumulator
/// for beta == 1); otherwise the scaling is a binary32 epilogue pass, as
/// cuBLAS does it. D = A x B (+ C) is gemm_ex(backend, a, b, c,
/// {.beta = c ? 1.0f : 0.0f}). Plans against default_context(), so
/// repeated same-shape calls hit the plan cache; pass an explicit context
/// (overload below) to isolate or warm a cache of your own.
Matrix gemm_ex(Backend backend, const Matrix& a, const Matrix& b,
               const Matrix* c, const GemmExParams& params);

/// gemm_ex against an explicit plan/workspace context (gemm/plan.hpp).
Matrix gemm_ex(GemmContext& ctx, Backend backend, const Matrix& a,
               const Matrix& b, const Matrix* c, const GemmExParams& params);

// -- batched / grouped entry points (DESIGN.md §18) --------------------------

/// One item of gemm_grouped: operands, a caller-owned output (resized in
/// place), and BLAS-style parameters. Shapes, transposes, and alpha/beta
/// may differ freely across items; `c` is required when params.beta != 0.
struct GroupedGemmItem {
  const Matrix* a = nullptr;
  const Matrix* b = nullptr;
  const Matrix* c = nullptr;
  Matrix* d = nullptr;
  GemmExParams params;
};

/// Heterogeneous grouped GEMM: every item runs gemm_ex semantics on
/// `backend`, but all items execute in ONE pool pass of regions through
/// GemmContext::execute_grouped, so many small GEMMs stop serializing
/// behind each other. Items with equal op-shapes share one
/// cached GemmPlan. Results are bit-identical to calling gemm_ex per item
/// in order. Items must not chain: a batch where an item's D is any
/// item's A, B or C (its own included: there is no in-place C == D), or
/// two items share a D, aborts before anything executes, release builds
/// included (expect_unchained in gemm/plan.hpp). Shared inputs are fine.
/// A uniform batch is a group of one shape: all its items share one plan.
void gemm_grouped(GemmContext& ctx, Backend backend,
                  std::span<const GroupedGemmItem> items);

// -- accuracy-contract entry points (core/scheme.hpp, DESIGN.md §16) ---------

/// Resolves an accuracy contract for D = alpha op(A) op(B) + beta C
/// without executing anything: derives missing scale context from the
/// data (contract scales <= 0 mean "measure max |x| here"), folds the
/// alpha/beta epilogue rounding into the target, and reports every ladder
/// rung's a-priori bound plus the selected scheme. resolution.feasible is
/// false when no rung meets the target. Requires alpha != 0 (the kernel
/// error cannot be scaled away through a zero alpha).
core::ContractResolution gemm_ex_contract_resolution(
    const Matrix& a, const Matrix& b, const Matrix* c,
    const GemmExParams& params, const core::AccuracyContract& contract);

/// gemm_ex under an accuracy contract: instead of a caller-chosen
/// backend, the planner selects the cheapest emulation scheme whose sound
/// a-priori element-wise bound meets contract.max_abs_error for this
/// data's scale context. Throws std::invalid_argument when no rung
/// qualifies (core::require_feasible), before anything is planned; the
/// message names the target the kernel must meet and the tightest rung's
/// bound. When the epilogue runs (alpha != 1, or beta not 0 or 1) that
/// target is the kernel's share of contract.max_abs_error, in the same
/// units as the rung bound it is compared with.
Matrix gemm_ex(GemmContext& ctx, const Matrix& a, const Matrix& b,
               const Matrix* c, const GemmExParams& params,
               const core::AccuracyContract& contract);

/// gemm_grouped under an accuracy contract: each item resolves the
/// contract for its own shape, parameters, and data (exactly as the
/// contract gemm_ex would), then all selected schemes execute as one
/// grouped call -- bit-identical to the per-item contract loop.
/// Throws std::invalid_argument when any item is infeasible: every item
/// resolves before any plans, so none is planned or executed. A uniform
/// batch under one batch-wide contract passes explicit (> 0) scales --
/// its worst case over the batch -- so every item resolves to one rung
/// and shares one plan.
void gemm_grouped(GemmContext& ctx, std::span<const GroupedGemmItem> items,
                  const core::AccuracyContract& contract);

}  // namespace egemm::gemm
