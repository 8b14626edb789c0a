#include "apps/pca.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "gemm/plan.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace egemm::apps {

namespace {

/// out[i0, i0 + Lanes) of C . v in binary64 over `ct` = C^T. Lanes is a
/// compile-time count, so the block's accumulators stay in registers across
/// j; each out[i] sums C(i, j) v[j] over j in order.
template <std::size_t Lanes>
void matvec_block(const gemm::MatrixD& ct, const double* v, std::size_t i0,
                  double* out) {
  double acc[Lanes] = {};
  for (std::size_t j = 0; j < ct.rows(); ++j) {
    const double* col = ct.row(j) + i0;
    const double vj = v[j];
    for (std::size_t l = 0; l < Lanes; ++l) acc[l] += col[l] * vj;
  }
  std::copy(acc, acc + Lanes, out + i0);
}

/// out = C . v: 32-output blocks, then the tail by 8 and by 1.
void matvec(const gemm::MatrixD& ct, const double* v, double* out) {
  std::size_t i0 = 0;
  for (; i0 + 32 <= ct.cols(); i0 += 32) matvec_block<32>(ct, v, i0, out);
  for (; i0 + 8 <= ct.cols(); i0 += 8) matvec_block<8>(ct, v, i0, out);
  for (; i0 < ct.cols(); ++i0) matvec_block<1>(ct, v, i0, out);
}

double norm(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += x * x;
  return std::sqrt(acc);
}

}  // namespace

PcaResult pca_power(const gemm::Matrix& points, const PcaOptions& opts) {
  EGEMM_EXPECTS(opts.components >= 1);
  EGEMM_EXPECTS(points.rows() >= 2);
  EGEMM_EXPECTS(static_cast<std::size_t>(opts.components) <= points.cols());
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();

  PcaResult result;
  const float alpha = 1.0f / static_cast<float>(n - 1);

  // Center the data (one streaming pass on CUDA cores).
  result.mean.assign(dim, 0.0f);
  {
    std::vector<double> sums(dim, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = points.row(i);
      for (std::size_t d = 0; d < dim; ++d) {
        sums[d] += static_cast<double>(row[d]);
      }
    }
    for (std::size_t d = 0; d < dim; ++d) {
      result.mean[d] =
          static_cast<float>(sums[d] / static_cast<double>(n));
    }
  }
  // One pool pass over row blocks writes X_c and each block's max |X_c|.
  // X_c is sized unwritten, so its pages are first touched by the pool.
  constexpr std::size_t kBlock = 32;
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  gemm::Matrix centered;
  centered.resize(n, dim);
  std::vector<double> block_max(blocks, 0.0);
  util::global_pool().parallel_for(blocks, [&](std::size_t b0,
                                               std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t i0 = b * kBlock;
      const std::size_t i1 = std::min(n, i0 + kBlock);
      for (std::size_t i = i0; i < i1; ++i) {
        const float* src = points.row(i);
        float* dst = centered.row(i);
        for (std::size_t d = 0; d < dim; ++d) {
          dst[d] = src[d] - result.mean[d];
          block_max[b] =
              std::max(block_max[b], std::fabs(static_cast<double>(dst[d])));
        }
      }
    }
  });

  // Covariance via the backend: C = (1/(n-1)) X_c^T x X_c -- the O(n dim^2)
  // GEMM this application exists for. A = X_c^T and B = X_c have the same
  // panels (dim lanes by n k-rows), so an emulated plan splits X_c once
  // into one kept pack and reads it as both operands. The 1/(n-1) is the
  // binary32 epilogue gemm_ex would apply.
  gemm::GemmContext& ctx =
      opts.context != nullptr ? *opts.context : gemm::default_context();
  std::shared_ptr<const gemm::GemmPlan> plan;
  if (opts.precision_target > 0.0) {
    core::AccuracyContract contract;
    contract.max_abs_error = opts.precision_target;
    contract.a_scale = *std::max_element(block_max.begin(), block_max.end());
    contract.b_scale = contract.a_scale;
    gemm::GemmExParams params;
    params.trans_a = gemm::Transpose::kTranspose;
    params.alpha = alpha;
    const core::SchemeId scheme =
        core::require_feasible(gemm::gemm_ex_contract_resolution(
            centered, centered, nullptr, params, contract));
    result.scheme = core::scheme_name(scheme);
    plan = ctx.plan_scheme(scheme, dim, dim, n);
  } else {
    plan = ctx.plan(opts.backend, dim, dim, n);
  }
  gemm::KeptPack kept;
  const gemm::Operand x_c = plan->keep(ctx, gemm::Side::kB, centered, kept);
  const gemm::Operand x_ct = x_c.kept() != nullptr
                                 ? x_c
                                 : gemm::Operand(centered,
                                                 gemm::Transpose::kTranspose);
  gemm::Matrix covariance;
  plan->execute(ctx, x_ct, x_c, nullptr, covariance);
  for (float& x : covariance.data()) x = alpha * x;

  // Power iteration with deflation on the dim x dim covariance.
  util::Xoshiro256 rng(opts.seed);
  result.components = gemm::Matrix(static_cast<std::size_t>(opts.components),
                                   dim);
  std::vector<double> v(dim), w(dim);
  for (int component = 0; component < opts.components; ++component) {
    const gemm::MatrixD ct = gemm::widen(gemm::transpose(covariance));
    for (double& x : v) x = rng.uniform_double(-1.0, 1.0);
    double lambda = 0.0;
    for (int iter = 0; iter < opts.power_iterations; ++iter) {
      matvec(ct, v.data(), w.data());
      const double w_norm = norm(w);
      if (w_norm == 0.0) break;
      for (double& x : w) x /= w_norm;
      const double new_lambda = w_norm;
      std::swap(v, w);
      if (std::fabs(new_lambda - lambda) <=
          opts.tolerance * std::max(1.0, new_lambda)) {
        lambda = new_lambda;
        break;
      }
      lambda = new_lambda;
    }
    result.explained_variance.push_back(lambda);
    for (std::size_t d = 0; d < dim; ++d) {
      result.components.at(static_cast<std::size_t>(component), d) =
          static_cast<float>(v[d]);
    }
    // Deflate: C -= lambda v v^T.
    for (std::size_t i = 0; i < dim; ++i) {
      float* row = covariance.row(i);
      for (std::size_t j = 0; j < dim; ++j) {
        row[j] -= static_cast<float>(lambda * v[i] * v[j]);
      }
    }
  }
  return result;
}

AppTiming pca_timing(const PcaWorkload& workload, gemm::Backend backend,
                     const tcsim::GpuSpec& spec) {
  EGEMM_EXPECTS(workload.points > 1 && workload.dim > 0);
  const auto n = static_cast<double>(workload.points);
  const auto d = static_cast<double>(workload.dim);

  AppTiming timing;
  // The covariance GEMM: (dim x n) x (n x dim).
  timing.gemm_seconds =
      gemm::time_gemm(backend, workload.dim, workload.dim, workload.points,
                      spec)
          .seconds;

  // Non-GEMM phases: mean + centering passes over X (read + read/write),
  // then power iterations as memory-bound dim^2 sweeps with deflation.
  const double bw = spec.dram_bandwidth_gbps * 1e9;
  const double centering = (4.0 * n * d + 8.0 * n * d) / bw +
                           2 * spec.kernel_launch_us * 1e-6;
  const double per_iter = 4.0 * d * d / bw + spec.kernel_launch_us * 1e-6;
  const double deflation = 8.0 * d * d / bw + spec.kernel_launch_us * 1e-6;
  timing.other_seconds =
      centering +
      static_cast<double>(workload.components) *
          (static_cast<double>(workload.power_iterations) * per_iter +
           deflation);

  timing.total_seconds = timing.gemm_seconds + timing.other_seconds;
  timing.gemm_fraction = timing.gemm_seconds / timing.total_seconds;
  return timing;
}

}  // namespace egemm::apps
