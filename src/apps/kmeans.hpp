#pragma once
// GEMM-based kMeans (hipeac gpus-kmeans [2]; §7.5, Fig. 12a).
//
// Each Lloyd iteration forms the point-to-centroid distance matrix from
// one GEMM (points x centroids^T) -- ~67% of the open-source
// implementation's time (§1) -- then assigns points to the nearest
// centroid and recomputes means. The GEMM backend is pluggable.

#include <cstdint>
#include <vector>

#include "gemm/gemm_api.hpp"
#include "gemm/matrix.hpp"

namespace egemm::apps {

struct KMeansOptions {
  int clusters = 16;
  int max_iterations = 25;
  double tolerance = 1e-6;  ///< stop when inertia improves less than this
  std::uint64_t seed = 42;  ///< k-means++-style seeding stream
  gemm::Backend backend = gemm::Backend::kEgemmTC;
  /// Accuracy contract on the distance GEMM: when > 0 the planner ignores
  /// `backend` and selects the cheapest emulation scheme whose a-priori
  /// element-wise bound (with the points' scale context; centroids are
  /// convex combinations of points, so share their scale) meets this
  /// target. Throws std::invalid_argument when no ladder rung qualifies.
  double precision_target = 0.0;
  /// Plan/workspace context for the per-iteration GEMM (gemm/plan.hpp);
  /// the shared default_context() when null. The Lloyd loop plans once,
  /// splits the points once into a kept pack (emulated backends), and
  /// executes into a reused distance matrix, so after the first iteration
  /// no allocation grows with the point count: only the clusters-sized
  /// centroid sums and norms are allocated per iteration.
  gemm::GemmContext* context = nullptr;
};

struct KMeansResult {
  gemm::Matrix centroids;       ///< clusters x dim
  std::vector<int> assignment;  ///< per point
  int iterations = 0;
  double inertia = 0.0;  ///< sum of squared distances to assigned centroid
  bool converged = false;
  /// Ladder rung the contract resolved to (static name from
  /// core::scheme_name); null when no precision_target was set.
  const char* scheme = nullptr;
};

/// Lloyd iterations on `points` (n x dim).
KMeansResult kmeans(const gemm::Matrix& points, const KMeansOptions& opts);

/// Inertia of an assignment (test oracle, binary64).
double kmeans_inertia(const gemm::Matrix& points, const gemm::Matrix& centroids,
                      const std::vector<int>& assignment);

}  // namespace egemm::apps
