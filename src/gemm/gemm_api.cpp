#include "gemm/gemm_api.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "gemm/plan.hpp"
#include "util/assert.hpp"

namespace egemm::gemm {

namespace {

/// The (alpha, beta) scaling epilogue shared by gemm_ex and the grouped
/// entry points, in place in D: one binary32 multiply plus one fma per
/// element, exactly as cuBLAS does it.
void apply_epilogue(Matrix& d, const Matrix* c, const GemmExParams& params) {
  for (std::size_t i = 0; i < d.size(); ++i) {
    float value = params.alpha * d.data()[i];
    if (c != nullptr && params.beta != 0.0f) {
      value = std::fmaf(params.beta, c->data()[i], value);
    }
    d.data()[i] = value;
  }
}

/// gemm_ex's fast-path rule: with alpha = 1 and beta = 0 or 1 the kernel
/// does all the work (beta = 1 rides C on the Tensor Core accumulator,
/// except on the SDK sample, which has no C input); every other case runs
/// the kernel without C and applies the binary32 alpha/beta epilogue.
bool fast_path(const GemmExParams& params, Backend backend) {
  return params.alpha == 1.0f &&
         (params.beta == 0.0f ||
          (params.beta == 1.0f && backend != Backend::kSdkFp32));
}

using PlanFn = std::function<std::shared_ptr<const GemmPlan>(
    std::size_t, std::size_t, std::size_t, std::size_t)>;

/// gemm_ex-semantics items normalized for execution: op(A) and op(B) are
/// the caller's matrices with their orientation, which the packs' fills
/// read directly; each item is planned and runs under the fast-path rule
/// above.
struct Normalized {
  std::vector<GroupedGemm> work;
  std::vector<std::size_t> epilogue;  ///< items that take the epilogue
};

/// Rows and columns of op(X).
std::pair<std::size_t, std::size_t> op_extents(const Matrix& x,
                                               Transpose trans) {
  return trans == Transpose::kTranspose ? std::pair{x.cols(), x.rows()}
                                        : std::pair{x.rows(), x.cols()};
}

/// Normalizes `items`, planning each through `make_plan(index, m, n, k)`.
Normalized normalize(std::span<const GroupedGemmItem> items,
                     const PlanFn& make_plan) {
  for (const GroupedGemmItem& item : items) {
    EGEMM_EXPECTS(item.a != nullptr && item.b != nullptr &&
                  item.d != nullptr);
    EGEMM_EXPECTS(item.params.beta == 0.0f || item.c != nullptr);
    // D is zero-filled or overwritten before the epilogue reads C.
    EGEMM_EXPECTS(item.d != item.a && item.d != item.b && item.d != item.c);
  }
  expect_unchained(items);
  Normalized out;
  out.work.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const GroupedGemmItem& item = items[i];
    const auto [m, k] = op_extents(*item.a, item.params.trans_a);
    const auto [b_rows, n] = op_extents(*item.b, item.params.trans_b);
    EGEMM_EXPECTS(k == b_rows);
    EGEMM_EXPECTS(item.c == nullptr ||
                  (item.c->rows() == m && item.c->cols() == n));
    std::shared_ptr<const GemmPlan> plan = make_plan(i, m, n, k);
    const bool fast = fast_path(item.params, plan->backend());
    if (!fast) out.epilogue.push_back(i);
    const Matrix* kernel_c =
        fast && item.params.beta == 1.0f ? item.c : nullptr;
    out.work.push_back(GroupedGemm{std::move(plan),
                                   {item.a, item.params.trans_a},
                                   {item.b, item.params.trans_b}, kernel_c,
                                   item.d});
  }
  return out;
}

void apply_epilogues(std::span<const GroupedGemmItem> items,
                     const Normalized& normalized) {
  for (const std::size_t i : normalized.epilogue) {
    apply_epilogue(*items[i].d, items[i].c, items[i].params);
  }
}

/// One gemm_ex call: a single GemmPlan::execute straight after planning,
/// so its call record carries this lookup's plan-cache hit/miss.
Matrix run_gemm_ex(GemmContext& ctx, const Matrix& a, const Matrix& b,
                   const Matrix* c, const GemmExParams& params,
                   const PlanFn& make_plan) {
  Matrix d;
  const GroupedGemmItem item{&a, &b, c, &d, params};
  const Normalized normalized = normalize({&item, 1}, make_plan);
  const GroupedGemm& work = normalized.work.front();
  work.plan->execute(ctx, work.a, work.b, work.c, d);
  apply_epilogues({&item, 1}, normalized);
  return d;
}

/// A group of gemm_ex items as one GemmContext::execute_grouped stream,
/// bit-identical to a loop of run_gemm_ex calls.
void run_gemm_ex_group(GemmContext& ctx,
                       std::span<const GroupedGemmItem> items,
                       const PlanFn& make_plan) {
  const Normalized normalized = normalize(items, make_plan);
  ctx.execute_grouped(normalized.work);
  apply_epilogues(items, normalized);
}

/// The items of a gemm_batched call: checks that every item has item 0's
/// shape and that C matches the batch, sizes `d` to the batch, and points
/// item i at a[i], b[i], c[i] (when given) and d[i].
std::vector<GroupedGemmItem> batch_items(std::span<const Matrix> a,
                                         std::span<const Matrix> b,
                                         std::span<const Matrix> c,
                                         const GemmExParams& params,
                                         std::vector<Matrix>& d) {
  EGEMM_EXPECTS(a.size() == b.size());
  EGEMM_EXPECTS(c.empty() || c.size() == a.size());
  EGEMM_EXPECTS(params.beta == 0.0f || !c.empty());
  for (std::size_t i = 1; i < a.size(); ++i) {
    EGEMM_EXPECTS(a[i].rows() == a[0].rows() && a[i].cols() == a[0].cols());
    EGEMM_EXPECTS(b[i].rows() == b[0].rows() && b[i].cols() == b[0].cols());
  }
  d.resize(a.size());
  std::vector<GroupedGemmItem> items(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    items[i].a = &a[i];
    items[i].b = &b[i];
    items[i].c = c.empty() ? nullptr : &c[i];
    items[i].d = &d[i];
    items[i].params = params;
  }
  return items;
}

}  // namespace

[[noreturn]] void throw_contract_infeasible(
    const core::AccuracyContract& contract,
    const core::ContractResolution& resolution) {
  char message[192];
  std::snprintf(message, sizeof(message),
                "no emulation scheme meets the accuracy contract: target "
                "%.6g, tightest rung (%s) only proves %.6g",
                contract.max_abs_error,
                core::scheme_name(resolution.tightest),
                resolution.tightest_worst_abs);
  throw std::invalid_argument(message);
}

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kEgemmTC:
      return "EGEMM-TC";
    case Backend::kCublasFp32:
      return "cuBLAS-CUDA-FP32";
    case Backend::kCublasTcHalf:
      return "cuBLAS-TC-Half";
    case Backend::kCublasTcEmulation:
      return "cuBLAS-TC-Emulation";
    case Backend::kSdkFp32:
      return "SDK-CUDA-FP32";
    case Backend::kMarkidis:
      return "Markidis";
    case Backend::kDekker:
      return "Dekker";
  }
  return "?";
}

std::vector<Backend> all_backends() {
  return {Backend::kEgemmTC,       Backend::kCublasFp32,
          Backend::kCublasTcHalf,  Backend::kCublasTcEmulation,
          Backend::kSdkFp32,       Backend::kMarkidis,
          Backend::kDekker};
}

Matrix gemm_ex(Backend backend, const Matrix& a, const Matrix& b,
               const Matrix* c, const GemmExParams& params) {
  return gemm_ex(default_context(), backend, a, b, c, params);
}

Matrix gemm_ex(GemmContext& ctx, Backend backend, const Matrix& a,
               const Matrix& b, const Matrix* c, const GemmExParams& params) {
  return run_gemm_ex(
      ctx, a, b, c, params,
      [&ctx, backend](std::size_t, std::size_t m, std::size_t n,
                      std::size_t k) { return ctx.plan(backend, m, n, k); });
}

core::ContractResolution gemm_ex_contract_resolution(
    const Matrix& a, const Matrix& b, const Matrix* c,
    const GemmExParams& params, const core::AccuracyContract& contract) {
  EGEMM_EXPECTS(params.alpha != 0.0f);
  EGEMM_EXPECTS(params.beta == 0.0f || c != nullptr);
  // max |op(X)| == max |X|: transposition never changes the scale context,
  // so the scales come straight off the stored matrices.
  const std::size_t k =
      params.trans_a == Transpose::kTranspose ? a.rows() : a.cols();
  core::AccuracyContract resolved = contract;
  if (resolved.a_scale <= 0.0) resolved.a_scale = max_abs(a);
  if (resolved.b_scale <= 0.0) resolved.b_scale = max_abs(b);
  const bool use_c = c != nullptr && params.beta != 0.0f;
  if (resolved.c_abs <= 0.0) resolved.c_abs = use_c ? max_abs(*c) : 0.0;
  if (!use_c) resolved.c_abs = 0.0;

  // Every rung plans on an emulated backend, which takes a C input.
  const bool fast = fast_path(params, Backend::kEgemmTC);
  double target = contract.max_abs_error;
  double kernel_c_abs = 0.0;
  if (fast) {
    // beta == 1 rides C on the kernel accumulator; beta == 0 has no C.
    if (params.beta == 1.0f) kernel_c_abs = resolved.c_abs;
  } else {
    // Epilogue path: the kernel runs without C, then D = alpha * D0 (one
    // binary32 multiply) fma'd with beta * C (one more rounding). Both
    // roundings are at most u32 of the output scale; budget 4 u32 of it
    // out of the target and require the kernel to meet the rest (scaled
    // back by |alpha|, since its error is multiplied through).
    const double alpha = std::fabs(static_cast<double>(params.alpha));
    const double beta = std::fabs(static_cast<double>(params.beta));
    const double out_scale =
        alpha * static_cast<double>(k) * resolved.a_scale *
            resolved.b_scale +
        beta * resolved.c_abs;
    target = (target - 4.0 * 0x1.0p-24 * out_scale) / alpha;
  }
  core::AccuracyContract kernel_contract = resolved;
  kernel_contract.max_abs_error = target;
  kernel_contract.c_abs = kernel_c_abs;
  return core::resolve_contract(kernel_contract, k);
}

Matrix gemm_ex(GemmContext& ctx, const Matrix& a, const Matrix& b,
               const Matrix* c, const GemmExParams& params,
               const core::AccuracyContract& contract) {
  const core::ContractResolution resolution =
      gemm_ex_contract_resolution(a, b, c, params, contract);
  if (!resolution.feasible) {
    throw_contract_infeasible(contract, resolution);
  }

  return run_gemm_ex(ctx, a, b, c, params,
                     [&ctx, &resolution](std::size_t, std::size_t m,
                                         std::size_t n, std::size_t k) {
                       return ctx.plan_scheme(resolution.scheme, m, n, k);
                     });
}

Matrix gemm_ex(const Matrix& a, const Matrix& b, const Matrix* c,
               const GemmExParams& params,
               const core::AccuracyContract& contract) {
  return gemm_ex(default_context(), a, b, c, params, contract);
}

void gemm_grouped(GemmContext& ctx, Backend backend,
                  std::span<const GroupedGemmItem> items) {
  run_gemm_ex_group(
      ctx, items,
      [&ctx, backend](std::size_t, std::size_t m, std::size_t n,
                      std::size_t k) { return ctx.plan(backend, m, n, k); });
}

void gemm_grouped(Backend backend, std::span<const GroupedGemmItem> items) {
  gemm_grouped(default_context(), backend, items);
}

std::vector<Matrix> gemm_batched(GemmContext& ctx, Backend backend,
                                 std::span<const Matrix> a,
                                 std::span<const Matrix> b,
                                 std::span<const Matrix> c,
                                 const GemmExParams& params) {
  std::vector<Matrix> d;
  const std::vector<GroupedGemmItem> items = batch_items(a, b, c, params, d);
  gemm_grouped(ctx, backend, items);
  return d;
}

std::vector<Matrix> gemm_batched(Backend backend, std::span<const Matrix> a,
                                 std::span<const Matrix> b,
                                 std::span<const Matrix> c,
                                 const GemmExParams& params) {
  return gemm_batched(default_context(), backend, a, b, c, params);
}

std::vector<Matrix> gemm_batched(GemmContext& ctx, std::span<const Matrix> a,
                                 std::span<const Matrix> b,
                                 std::span<const Matrix> c,
                                 const GemmExParams& params,
                                 const core::AccuracyContract& contract) {
  std::vector<Matrix> d;
  const std::vector<GroupedGemmItem> items = batch_items(a, b, c, params, d);
  if (items.empty()) return d;
  // One resolution against the batch-wide worst-case scale context: the
  // max over the items' |a|, |b|, |c| dominates every per-item context,
  // so the selected rung's bound is sound for the whole batch and all
  // items share one scheme (hence one plan).
  core::AccuracyContract resolved = contract;
  const bool use_c = !c.empty() && params.beta != 0.0f;
  if (resolved.a_scale <= 0.0) {
    for (const Matrix& item : a) {
      resolved.a_scale = std::max(resolved.a_scale, max_abs(item));
    }
  }
  if (resolved.b_scale <= 0.0) {
    for (const Matrix& item : b) {
      resolved.b_scale = std::max(resolved.b_scale, max_abs(item));
    }
  }
  if (resolved.c_abs <= 0.0 && use_c) {
    for (const Matrix& item : c) {
      resolved.c_abs = std::max(resolved.c_abs, max_abs(item));
    }
  }
  const core::ContractResolution resolution = gemm_ex_contract_resolution(
      a[0], b[0], use_c ? &c[0] : nullptr, params, resolved);
  if (!resolution.feasible) {
    throw_contract_infeasible(contract, resolution);
  }
  run_gemm_ex_group(ctx, items,
                    [&ctx, &resolution](std::size_t, std::size_t m,
                                        std::size_t n, std::size_t k) {
                      return ctx.plan_scheme(resolution.scheme, m, n, k);
                    });
  return d;
}

std::vector<Matrix> gemm_batched(std::span<const Matrix> a,
                                 std::span<const Matrix> b,
                                 std::span<const Matrix> c,
                                 const GemmExParams& params,
                                 const core::AccuracyContract& contract) {
  return gemm_batched(default_context(), a, b, c, params, contract);
}

void gemm_grouped(GemmContext& ctx, std::span<const GroupedGemmItem> items,
                  const core::AccuracyContract& contract) {
  // Per-item resolution, exactly as the contract gemm_ex would do it, all
  // up front so an infeasible item throws before anything executes.
  std::vector<core::SchemeId> schemes;
  schemes.reserve(items.size());
  for (const GroupedGemmItem& item : items) {
    EGEMM_EXPECTS(item.a != nullptr && item.b != nullptr &&
                  item.d != nullptr);
    const core::ContractResolution resolution = gemm_ex_contract_resolution(
        *item.a, *item.b, item.c, item.params, contract);
    if (!resolution.feasible) {
      throw_contract_infeasible(contract, resolution);
    }
    schemes.push_back(resolution.scheme);
  }
  run_gemm_ex_group(ctx, items,
                    [&ctx, &schemes](std::size_t i, std::size_t m,
                                     std::size_t n, std::size_t k) {
                      return ctx.plan_scheme(schemes[i], m, n, k);
                    });
}

void gemm_grouped(std::span<const GroupedGemmItem> items,
                  const core::AccuracyContract& contract) {
  gemm_grouped(default_context(), items, contract);
}

KernelTiming time_gemm(Backend backend, std::uint64_t m, std::uint64_t n,
                       std::uint64_t k, const tcsim::GpuSpec& spec) {
  switch (backend) {
    case Backend::kEgemmTC:
      return egemm_timing(m, n, k, spec);
    case Backend::kCublasFp32:
      return sgemm_fp32_timing(m, n, k, spec);
    case Backend::kCublasTcHalf:
      return tc_half_timing(m, n, k, spec);
    case Backend::kCublasTcEmulation:
      return tc_emulation_timing(m, n, k, spec);
    case Backend::kSdkFp32:
      return sdk_gemm_timing(m, n, k, spec);
    case Backend::kMarkidis:
      return markidis_timing(m, n, k, spec);
    case Backend::kDekker: {
      EgemmOptions opts;
      opts.emulation_instructions = 16;
      return egemm_timing(m, n, k, spec, opts);
    }
  }
  EGEMM_EXPECTS(!"unreachable backend");
  return KernelTiming{};
}

}  // namespace egemm::gemm
