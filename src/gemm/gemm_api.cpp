#include "gemm/gemm_api.hpp"

#include <cmath>
#include <memory>
#include <tuple>
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

/// Rows and columns of op(X).
std::pair<std::size_t, std::size_t> op_extents(const Matrix& x,
                                               Transpose trans) {
  return trans == Transpose::kTranspose ? std::pair{x.cols(), x.rows()}
                                        : std::pair{x.rows(), x.cols()};
}

/// A gemm_ex-semantics item as the engine runs it: op(A) x op(B)'s
/// extents, and the fast-path rule's split between the kernel's C and the
/// epilogue. op(A) and op(B) are the caller's matrices with their
/// orientation, which the packs' fills read directly.
struct ItemForm {
  std::size_t m = 0, n = 0, k = 0;
  const Matrix* kernel_c = nullptr;  ///< C on the kernel's accumulator
  bool epilogue = false;             ///< alpha/beta applied after the kernel
};

/// Checks `item` and derives its form for a plan on `backend`. Every
/// contract rung plans on an emulated backend, which takes a C input, so
/// the contract entries pass kEgemmTC.
ItemForm normalize(const GroupedGemmItem& item, Backend backend) {
  EGEMM_EXPECTS(item.a != nullptr && item.b != nullptr && item.d != nullptr);
  EGEMM_EXPECTS(item.params.beta == 0.0f || item.c != nullptr);
  // D is zero-filled or overwritten before the epilogue reads C.
  EGEMM_EXPECTS(item.d != item.a && item.d != item.b && item.d != item.c);
  ItemForm form;
  std::size_t b_rows = 0;
  std::tie(form.m, form.k) = op_extents(*item.a, item.params.trans_a);
  std::tie(b_rows, form.n) = op_extents(*item.b, item.params.trans_b);
  EGEMM_EXPECTS(form.k == b_rows);
  EGEMM_EXPECTS(item.c == nullptr ||
                (item.c->rows() == form.m && item.c->cols() == form.n));
  const bool fast = fast_path(item.params, backend);
  form.epilogue = !fast;
  form.kernel_c = fast && item.params.beta == 1.0f ? item.c : nullptr;
  return form;
}

/// The forms of a grouped call's items; aborts on a chained batch before
/// anything is planned.
std::vector<ItemForm> normalize(std::span<const GroupedGemmItem> items,
                                Backend backend) {
  std::vector<ItemForm> forms;
  forms.reserve(items.size());
  for (const GroupedGemmItem& item : items) {
    forms.push_back(normalize(item, backend));
  }
  expect_unchained(items);
  return forms;
}

/// One gemm_ex call: a single GemmPlan::execute straight after planning,
/// so its call record carries this lookup's plan-cache hit/miss.
void run_gemm_ex(GemmContext& ctx, const GroupedGemmItem& item,
                 const ItemForm& form, const GemmPlan& plan) {
  plan.execute(ctx, {item.a, item.params.trans_a},
               {item.b, item.params.trans_b}, form.kernel_c, *item.d);
  if (form.epilogue) apply_epilogue(*item.d, item.c, item.params);
}

/// A group of gemm_ex items as one GemmContext::execute_grouped stream,
/// bit-identical to a loop of run_gemm_ex calls; item i runs plans[i].
void run_gemm_ex_group(GemmContext& ctx,
                       std::span<const GroupedGemmItem> items,
                       std::span<const ItemForm> forms,
                       std::vector<std::shared_ptr<const GemmPlan>> plans) {
  std::vector<GroupedGemm> work;
  work.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const GroupedGemmItem& item = items[i];
    work.push_back(GroupedGemm{std::move(plans[i]),
                               {item.a, item.params.trans_a},
                               {item.b, item.params.trans_b},
                               forms[i].kernel_c, item.d});
  }
  ctx.execute_grouped(work);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (forms[i].epilogue) {
      apply_epilogue(*items[i].d, items[i].c, items[i].params);
    }
  }
}

}  // namespace

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
  Matrix d;
  const GroupedGemmItem item{&a, &b, c, &d, params};
  const ItemForm form = normalize(item, backend);
  run_gemm_ex(ctx, item, form, *ctx.plan(backend, form.m, form.n, form.k));
  return d;
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
  Matrix d;
  const GroupedGemmItem item{&a, &b, c, &d, params};
  const ItemForm form = normalize(item, Backend::kEgemmTC);
  const core::SchemeId scheme = core::require_feasible(
      gemm_ex_contract_resolution(a, b, c, params, contract));
  run_gemm_ex(ctx, item, form,
              *ctx.plan_scheme(scheme, form.m, form.n, form.k));
  return d;
}

void gemm_grouped(GemmContext& ctx, Backend backend,
                  std::span<const GroupedGemmItem> items) {
  const std::vector<ItemForm> forms = normalize(items, backend);
  std::vector<std::shared_ptr<const GemmPlan>> plans;
  plans.reserve(items.size());
  for (const ItemForm& form : forms) {
    plans.push_back(ctx.plan(backend, form.m, form.n, form.k));
  }
  run_gemm_ex_group(ctx, items, forms, std::move(plans));
}

void gemm_grouped(GemmContext& ctx, std::span<const GroupedGemmItem> items,
                  const core::AccuracyContract& contract) {
  const std::vector<ItemForm> forms = normalize(items, Backend::kEgemmTC);
  // Every item resolves, exactly as the contract gemm_ex would, before any
  // item plans: an infeasible item throws with nothing planned or run.
  std::vector<core::SchemeId> schemes;
  schemes.reserve(items.size());
  for (const GroupedGemmItem& item : items) {
    schemes.push_back(core::require_feasible(gemm_ex_contract_resolution(
        *item.a, *item.b, item.c, item.params, contract)));
  }
  std::vector<std::shared_ptr<const GemmPlan>> plans;
  plans.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    plans.push_back(
        ctx.plan_scheme(schemes[i], forms[i].m, forms[i].n, forms[i].k));
  }
  run_gemm_ex_group(ctx, items, forms, std::move(plans));
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
