#include "apps/knn.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>
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
  // Explicit scale context shared by the single GEMM and every grouped
  // chunk, so the grouped path resolves to the same scheme. Only a
  // contract reads it, so the scans are skipped without one.
  core::AccuracyContract contract;
  contract.max_abs_error = opts.precision_target;
  if (opts.precision_target > 0.0) {
    contract.a_scale = gemm::max_abs(queries);
    contract.b_scale = gemm::max_abs(references);
  }
  const auto plan_shape =
      [&](std::size_t rows) -> std::shared_ptr<const gemm::GemmPlan> {
    if (opts.precision_target <= 0.0) {
      return ctx.plan(opts.backend, rows, n, queries.cols());
    }
    const gemm::GemmContext::ContractPlan cp =
        ctx.plan_contract(rows, n, queries.cols(), contract);
    if (!cp.resolution.feasible) {
      char message[192];
      std::snprintf(message, sizeof(message),
                    "knn: no emulation scheme meets the accuracy contract: "
                    "target %.6g, tightest rung (%s) only proves %.6g",
                    opts.precision_target,
                    core::scheme_name(cp.resolution.tightest),
                    cp.resolution.tightest_worst_abs);
      throw std::invalid_argument(message);
    }
    result.scheme = core::scheme_name(cp.resolution.scheme);
    return cp.plan;
  };
  const gemm::Matrix rt = gemm::transpose(references);

  // Grouped path (DESIGN.md §18): query chunks execute as one flattened
  // stream, bit-identical to the single (m x n) GEMM.
  const std::size_t group =
      opts.group_rows == 0 ? m : std::min(opts.group_rows, m);
  const std::size_t chunk_count = m == 0 ? 0 : (m + group - 1) / group;
  const bool grouped = chunk_count > 1;
  gemm::Matrix cross;
  std::vector<gemm::Matrix> query_chunks(grouped ? chunk_count : 0);
  std::vector<gemm::Matrix> cross_chunks(grouped ? chunk_count : 0);
  if (grouped) {
    std::vector<gemm::GroupedGemm> work(chunk_count);
    for (std::size_t ci = 0; ci < chunk_count; ++ci) {
      const std::size_t start = ci * group;
      const std::size_t rows = std::min(group, m - start);
      query_chunks[ci].resize(rows, queries.cols());
      std::copy(queries.row(start),
                queries.row(start) + rows * queries.cols(),
                query_chunks[ci].data().begin());
      work[ci] = gemm::GroupedGemm{plan_shape(rows), &query_chunks[ci], &rt,
                                   nullptr, &cross_chunks[ci]};
    }
    ctx.execute_grouped(work);
  } else {
    plan_shape(m)->execute(ctx, queries, rt, nullptr, cross);
  }

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
      const float* cross_row =
          grouped ? cross_chunks[i / group].row(i % group) : cross.row(i);
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
