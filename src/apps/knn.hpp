#pragma once
// GEMM-based k-nearest-neighbor search (Garcia [9]; §7.5, Fig. 12b).
//
// The distance matrix is assembled from a single large GEMM,
//   dist^2(q, x) = ||q||^2 + ||x||^2 - 2 q.x,
// which is where ~85% of the open-source implementation's time goes (§1);
// the GEMM backend is pluggable so EGEMM-TC drops in for cublasSgemm.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gemm/gemm_api.hpp"
#include "gemm/matrix.hpp"

namespace egemm::apps {

struct KnnResult {
  /// indices.at(i, j): index (into the reference set) of query i's j-th
  /// nearest neighbor, nearest first.
  gemm::BasicMatrix<std::int32_t> indices;
  /// Squared distances, same layout.
  gemm::Matrix distances;
  /// Ladder rung the contract resolved to (static name from
  /// core::scheme_name); null when no precision_target was set.
  const char* scheme = nullptr;
};

struct KnnOptions {
  int k = 8;
  gemm::Backend backend = gemm::Backend::kEgemmTC;
  /// Accuracy contract on the cross-term GEMM: when > 0 the planner
  /// ignores `backend` and selects the cheapest emulation scheme whose
  /// a-priori bound (queries/references scale context) meets this target.
  /// Throws std::invalid_argument when no ladder rung qualifies.
  double precision_target = 0.0;
  /// Plan/workspace context for the distance GEMM (gemm/plan.hpp); the
  /// shared default_context() when null. Batched searches over same-shape
  /// query sets reuse the cached plan and its workspaces.
  gemm::GemmContext* context = nullptr;
};

/// Query rows per cross-term panel: a panel's cross terms (64 x n floats,
/// 1 MB at n = 4096) are selected from while they are still in cache.
inline constexpr std::size_t kKnnPanelRows = 64;

/// queries: m x d, references: n x d. Requires k <= n.
///
/// The references are split once per search (emulated backends) and the
/// queries stream through them kKnnPanelRows at a time, so the search
/// holds one panel's cross terms, never the whole m x n matrix.
KnnResult knn_search(const gemm::Matrix& queries,
                     const gemm::Matrix& references, const KnnOptions& opts);

/// Direct double-precision brute force (test oracle).
KnnResult knn_bruteforce(const gemm::Matrix& queries,
                         const gemm::Matrix& references, int k);

/// Fraction of (query, rank) pairs whose neighbor index matches between
/// two results; 1.0 means identical neighbor lists.
double knn_agreement(const KnnResult& a, const KnnResult& b);

}  // namespace egemm::apps
