#include "apps/knn.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "gemm/plan.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace egemm::apps {

namespace {

/// Partial selection of the k smallest entries of `row`, ties broken by
/// index (deterministic across backends): the oracle's selection.
void select_k(const float* row, std::size_t n, int k,
              std::int32_t* out_idx, float* out_dist) {
  std::vector<std::int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const auto kth = order.begin() + k;
  std::partial_sort(order.begin(), kth, order.end(),
                    [row](std::int32_t a, std::int32_t b) {
                      const float da = row[a], db = row[b];
                      if (da != db) return da < db;
                      return a < b;
                    });
  for (int j = 0; j < k; ++j) {
    out_idx[j] = order[static_cast<std::size_t>(j)];
    out_dist[j] = row[order[static_cast<std::size_t>(j)]];
  }
}

}  // namespace

KnnResult knn_search(const gemm::Matrix& queries,
                     const gemm::Matrix& references, const KnnOptions& opts) {
  EGEMM_EXPECTS(queries.cols() == references.cols());
  EGEMM_EXPECTS(opts.k >= 1 &&
                static_cast<std::size_t>(opts.k) <= references.rows());
  const std::size_t m = queries.rows();
  const std::size_t n = references.rows();

  // Cross terms via one large GEMM: Q x R^T (m x n).
  gemm::GemmContext& ctx =
      opts.context != nullptr ? *opts.context : gemm::default_context();

  KnnResult result;
  std::shared_ptr<const gemm::GemmPlan> plan;
  if (opts.precision_target > 0.0) {
    core::AccuracyContract contract;
    contract.max_abs_error = opts.precision_target;
    contract.a_scale = gemm::max_abs(queries);
    contract.b_scale = gemm::max_abs(references);
    const gemm::GemmContext::ContractPlan cp =
        ctx.plan_contract(m, n, queries.cols(), contract);
    if (!cp.resolution.feasible) {
      gemm::throw_contract_infeasible(contract, cp.resolution);
    }
    result.scheme = core::scheme_name(cp.resolution.scheme);
    plan = cp.plan;
  } else {
    plan = ctx.plan(opts.backend, m, n, queries.cols());
  }
  // The cross matrix (m x n) and the transposed references stay with the
  // calling thread, so a repeat search reuses their storage instead of
  // mapping, faulting in and unmapping it again. They are bound to plain
  // references here: a thread_local named inside the pool lambda would be
  // each worker's own empty copy.
  thread_local gemm::Matrix kept_cross;
  thread_local gemm::Matrix kept_refs_t;
  gemm::Matrix& cross = kept_cross;
  gemm::Matrix& refs_t = kept_refs_t;
  gemm::transpose_into(references, refs_t);
  plan->execute(ctx, queries, refs_t, nullptr, cross);

  const std::vector<float> qn = gemm::row_norms(queries);
  const std::vector<float> rn = gemm::row_norms(references);
  const auto k = static_cast<std::size_t>(opts.k);
  result.indices = gemm::BasicMatrix<std::int32_t>(m, k);
  result.distances = gemm::Matrix(m, k);

  // Query rows run on the pool, each through a sorted k-slot insertion that
  // rejects most candidates with one compare. j ascends, so an equal distance
  // never displaces a kept index: ranks match select_k's (distance, index).
  util::global_pool().parallel_for(m, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const float* cross_row = cross.row(i);
      std::int32_t* idx = result.indices.row(i);
      float* dist = result.distances.row(i);
      std::size_t kept = 0;
      for (std::size_t j = 0; j < n; ++j) {
        // Clamp: rounding can push tiny true distances slightly negative.
        const float d = std::max(0.0f, qn[i] + rn[j] - 2.0f * cross_row[j]);
        if (kept == k && !(d < dist[k - 1])) continue;
        std::size_t slot = kept < k ? kept++ : k - 1;
        for (; slot > 0 && dist[slot - 1] > d; --slot) {
          dist[slot] = dist[slot - 1];
          idx[slot] = idx[slot - 1];
        }
        dist[slot] = d;
        idx[slot] = static_cast<std::int32_t>(j);
      }
    }
  });
  return result;
}

KnnResult knn_bruteforce(const gemm::Matrix& queries,
                         const gemm::Matrix& references, int k) {
  EGEMM_EXPECTS(queries.cols() == references.cols());
  const std::size_t m = queries.rows();
  const std::size_t n = references.rows();

  KnnResult result;
  result.indices =
      gemm::BasicMatrix<std::int32_t>(m, static_cast<std::size_t>(k));
  result.distances = gemm::Matrix(m, static_cast<std::size_t>(k));

  std::vector<float> dist_row(n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t d = 0; d < queries.cols(); ++d) {
        const double diff = static_cast<double>(queries.at(i, d)) -
                            static_cast<double>(references.at(j, d));
        acc += diff * diff;
      }
      dist_row[j] = static_cast<float>(acc);
    }
    select_k(dist_row.data(), n, k, result.indices.row(i),
             result.distances.row(i));
  }
  return result;
}

double knn_agreement(const KnnResult& a, const KnnResult& b) {
  EGEMM_EXPECTS(a.indices.rows() == b.indices.rows() &&
                a.indices.cols() == b.indices.cols());
  if (a.indices.size() == 0) return 1.0;
  std::size_t matches = 0;
  for (std::size_t i = 0; i < a.indices.size(); ++i) {
    if (a.indices.data()[i] == b.indices.data()[i]) ++matches;
  }
  return static_cast<double>(matches) /
         static_cast<double>(a.indices.size());
}

}  // namespace egemm::apps
