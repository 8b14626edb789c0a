#include "apps/knn.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

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

/// Distances nearest_k forms at a time past its first k, to skip runs
/// that cannot enter the top k.
constexpr std::size_t kSkipRun = 16;

#if defined(__SSE2__)
/// True when one of the kSkipRun distances max(0, q + rn[t] - 2 cross[t])
/// is below `bound`. The same binary32 operations as nearest_k's scalar
/// distance, four at a time: max(x, 0) takes NaN and -0 to +0, as
/// std::max(0.0f, x) does.
bool any_below(float q, const float* rn, const float* cross, float bound) {
  const __m128 vq = _mm_set1_ps(q);
  const __m128 two = _mm_set1_ps(2.0f);
  const __m128 vb = _mm_set1_ps(bound);
  __m128 below = _mm_setzero_ps();
  for (std::size_t t = 0; t < kSkipRun; t += 4) {
    const __m128 d = _mm_max_ps(
        _mm_sub_ps(_mm_add_ps(vq, _mm_loadu_ps(rn + t)),
                   _mm_mul_ps(two, _mm_loadu_ps(cross + t))),
        _mm_setzero_ps());
    below = _mm_or_ps(below, _mm_cmplt_ps(d, vb));
  }
  return _mm_movemask_ps(below) != 0;
}
#endif

/// The k nearest references of one query, nearest first, into idx/dist:
/// distance j is max(0, q + rn[j] - 2 cross[j]) (the clamp absorbs
/// rounding that pushes tiny true distances slightly negative), and each
/// enters a sorted k-slot insertion. j ascends, so an equal distance never
/// displaces a kept index: ranks match select_k's (distance, index). Past
/// the first k, a run of kSkipRun distances none of which is below the
/// k-th kept one is skipped whole; the k-th only falls, so the skip keeps
/// every insertion the scan makes.
void nearest_k(float q, const float* rn, const float* cross, std::size_t n,
               std::size_t k, std::int32_t* idx, float* dist) {
  const auto distance = [&](std::size_t j) {
    return std::max(0.0f, q + rn[j] - 2.0f * cross[j]);
  };
  const auto insert = [&](float d, std::size_t j, std::size_t slot) {
    for (; slot > 0 && dist[slot - 1] > d; --slot) {
      dist[slot] = dist[slot - 1];
      idx[slot] = idx[slot - 1];
    }
    dist[slot] = d;
    idx[slot] = static_cast<std::int32_t>(j);
  };
  std::size_t j = 0;
  for (; j < k; ++j) insert(distance(j), j, j);
  for (; j < n; j += kSkipRun) {
    const std::size_t end = std::min(n, j + kSkipRun);
#if defined(__SSE2__)
    if (end - j == kSkipRun && !any_below(q, rn + j, cross + j, dist[k - 1])) {
      continue;
    }
#endif
    for (std::size_t t = j; t < end; ++t) {
      const float d = distance(t);
      if (d < dist[k - 1]) insert(d, t, k - 1);
    }
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
  const std::size_t dim = queries.cols();

  // Cross terms Q x R^T, one panel of query rows at a time: a
  // (rows x dim) x (dim x n) GEMM per panel.
  gemm::GemmContext& ctx =
      opts.context != nullptr ? *opts.context : gemm::default_context();

  KnnResult result;
  std::optional<core::SchemeId> scheme;
  if (opts.precision_target > 0.0) {
    core::AccuracyContract contract;
    contract.max_abs_error = opts.precision_target;
    contract.a_scale = gemm::max_abs(queries);
    contract.b_scale = gemm::max_abs(references);
    scheme = core::require_feasible(core::resolve_contract(contract, dim));
    result.scheme = core::scheme_name(*scheme);
  }
  const auto plan_rows = [&](std::size_t rows) {
    return scheme ? ctx.plan_scheme(*scheme, rows, n, dim)
                  : ctx.plan(opts.backend, rows, n, dim);
  };
  const std::size_t panel_rows = std::min(kKnnPanelRows, m);
  const std::shared_ptr<const gemm::GemmPlan> plan = plan_rows(panel_rows);
  const std::shared_ptr<const gemm::GemmPlan> tail_plan =
      m % kKnnPanelRows != 0 && m > kKnnPanelRows
          ? plan_rows(m % kKnnPanelRows)
          : plan;
  // The references are B = R^T for every panel: an emulated plan splits
  // them once, read transposed, into a kept pack both plans read.
  gemm::KeptPack kept_refs;
  const gemm::Operand refs = plan->keep(
      ctx, gemm::Side::kB, {references, gemm::Transpose::kTranspose},
      kept_refs);

  const std::vector<float> qn = gemm::row_norms(queries);
  const std::vector<float> rn = gemm::row_norms(references);
  const auto k = static_cast<std::size_t>(opts.k);
  result.indices = gemm::BasicMatrix<std::int32_t>(m, k);
  result.distances = gemm::Matrix(m, k);

  gemm::Matrix cross;  // the panel's cross terms, rows x n
  for (std::size_t i0 = 0; i0 < m; i0 += kKnnPanelRows) {
    const std::size_t rows = std::min(kKnnPanelRows, m - i0);
    // The panel is a row range of the queries, read in place.
    (rows == panel_rows ? plan : tail_plan)
        ->execute(ctx, {queries, i0, rows}, refs, nullptr, cross);

    // The panel's rows run on the pool while its cross terms are still in
    // cache.
    util::global_pool().parallel_for(rows, [&](std::size_t begin,
                                                std::size_t end) {
      for (std::size_t r = begin; r < end; ++r) {
        const std::size_t i = i0 + r;
        nearest_k(qn[i], rn.data(), cross.row(r), n, k,
                  result.indices.row(i), result.distances.row(i));
      }
    });
  }
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
