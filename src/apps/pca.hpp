#pragma once
// GEMM-based principal component analysis (a third GEMM-dominated
// scientific workload beyond the paper's kNN/kMeans pair; §1's motivation
// covers "mathematical computations" generally).
//
// The covariance matrix C = X_c^T X_c / (n-1) is one large GEMM -- the
// dominant cost for n >> dim -- followed by power iteration with
// deflation on the (small) covariance. Precision matters twice: the
// covariance entries accumulate n products, and eigenvector convergence is
// sensitive to systematic error, which is why a half-precision backend
// visibly degrades the recovered subspace (tests).

#include <cstdint>
#include <vector>

#include "apps/app_timing.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/matrix.hpp"
#include "tcsim/gpu_spec.hpp"

namespace egemm::apps {

struct PcaOptions {
  int components = 4;
  int power_iterations = 50;
  double tolerance = 1e-7;  ///< per-component convergence on the Rayleigh quotient
  std::uint64_t seed = 7;
  gemm::Backend backend = gemm::Backend::kEgemmTC;
  /// Accuracy contract on each covariance entry: when > 0 the planner
  /// ignores `backend` and resolves the contract as the contract gemm_ex
  /// overload would (gemm_ex_contract_resolution), selecting the cheapest
  /// emulation scheme whose a-priori bound meets this target (the 1/(n-1)
  /// alpha epilogue rounding included). Throws std::invalid_argument when
  /// no ladder rung qualifies.
  double precision_target = 0.0;
  /// Plan/workspace context for the covariance GEMM (gemm/plan.hpp); the
  /// shared default_context() when null.
  gemm::GemmContext* context = nullptr;
};

struct PcaResult {
  gemm::Matrix components;               ///< components x dim, orthonormal rows
  std::vector<double> explained_variance;  ///< eigenvalues, descending
  std::vector<float> mean;               ///< the removed column means
  /// Ladder rung the contract resolved to (static name from
  /// core::scheme_name); null when no precision_target was set.
  const char* scheme = nullptr;
};

/// Computes the leading principal components of `points` (n x dim).
PcaResult pca_power(const gemm::Matrix& points, const PcaOptions& opts);

/// Modeled GPU time for the PCA pipeline (covariance GEMM through the
/// backend's kernel model + memory-bound centering/iteration passes).
struct PcaWorkload {
  std::uint64_t points = 16384;
  std::uint64_t dim = 1024;
  int components = 8;
  int power_iterations = 30;
};
AppTiming pca_timing(const PcaWorkload& workload, gemm::Backend backend,
                     const tcsim::GpuSpec& spec);

}  // namespace egemm::apps
