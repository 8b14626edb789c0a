#include "apps/kmeans.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#if defined(__SSE2__)
#include <xmmintrin.h>
#include <emmintrin.h>
#endif

#include "gemm/plan.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace egemm::apps {

namespace {

/// acc[l] += (rows[l][d] - centroid[d])^2 in binary64 for d in [0, dim),
/// in order, for four rows at once. With SSE2 the rows go four columns at
/// a time through a 4x4 transpose, and each column's four differences are
/// squared and added two lanes at a time: per row the same binary64
/// operations in the same order as the scalar loop that finishes the last
/// dim % 4 columns, so the sums are bit-identical to it.
void squared_distances(const float* const* rows, const float* centroid,
                       std::size_t dim, double* acc) {
  std::size_t d = 0;
#if defined(__SSE2__)
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  for (; d + 4 <= dim; d += 4) {
    __m128 x[4] = {_mm_loadu_ps(rows[0] + d), _mm_loadu_ps(rows[1] + d),
                   _mm_loadu_ps(rows[2] + d), _mm_loadu_ps(rows[3] + d)};
    _MM_TRANSPOSE4_PS(x[0], x[1], x[2], x[3]);  // x[j]: column d + j
    for (std::size_t j = 0; j < 4; ++j) {
      const __m128d c = _mm_set1_pd(static_cast<double>(centroid[d + j]));
      const __m128d d01 = _mm_sub_pd(_mm_cvtps_pd(x[j]), c);
      const __m128d d23 =
          _mm_sub_pd(_mm_cvtps_pd(_mm_movehl_ps(x[j], x[j])), c);
      acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
      acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
    }
  }
  _mm_storeu_pd(acc, acc01);
  _mm_storeu_pd(acc + 2, acc23);
#endif
  for (; d < dim; ++d) {
    for (std::size_t l = 0; l < 4; ++l) {
      const double diff = static_cast<double>(rows[l][d]) -
                          static_cast<double>(centroid[d]);
      acc[l] += diff * diff;
    }
  }
}

/// k-means++ style seeding: first centroid uniform, the rest sampled with
/// probability proportional to the squared distance to the nearest chosen
/// centroid (computed directly; seeding is not the GEMM-heavy phase).
gemm::Matrix seed_centroids(const gemm::Matrix& points, int clusters,
                            std::uint64_t seed) {
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  util::Xoshiro256 rng(seed);
  gemm::Matrix centroids(static_cast<std::size_t>(clusters), dim);

  std::vector<double> best_dist(n, std::numeric_limits<double>::max());
  std::size_t chosen = rng.below(n);
  for (int c = 0; c < clusters; ++c) {
    float* centroid = centroids.row(static_cast<std::size_t>(c));
    std::copy(points.row(chosen), points.row(chosen) + dim, centroid);
    if (c + 1 == clusters) break;
    // Points run on the pool, four per step as interleaved chains that each
    // sum over d in order (a short tail repeats its last point); the total
    // below stays serial.
    util::global_pool().parallel_for(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; i += 4) {
        const float* rows[4];
        for (std::size_t l = 0; l < 4; ++l) {
          rows[l] = points.row(std::min(i + l, e - 1));
        }
        double acc[4] = {};
        squared_distances(rows, centroid, dim, acc);
        for (std::size_t l = 0; l < std::min<std::size_t>(4, e - i); ++l) {
          best_dist[i + l] = std::min(best_dist[i + l], acc[l]);
        }
      }
    });
    double total = 0.0;
    for (const double dist : best_dist) total += dist;
    // Sample proportional to best_dist.
    double target = rng.uniform_double(0.0, total);
    chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= best_dist[i];
      if (target <= 0.0) {
        chosen = i;
        break;
      }
    }
  }
  return centroids;
}

}  // namespace

KMeansResult kmeans(const gemm::Matrix& points, const KMeansOptions& opts) {
  EGEMM_EXPECTS(opts.clusters >= 1);
  EGEMM_EXPECTS(points.rows() >= static_cast<std::size_t>(opts.clusters));
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  const auto clusters = static_cast<std::size_t>(opts.clusters);

  KMeansResult result;
  result.centroids = seed_centroids(points, opts.clusters, opts.seed);
  result.assignment.assign(n, 0);

  const std::vector<float> pn = gemm::row_norms(points);
  double prev_inertia = std::numeric_limits<double>::max();

  // Every iteration runs the same (n x dim) x (dim x clusters) GEMM: plan
  // it once, then execute into reused buffers -- after the first pass the
  // GEMM grows no buffer (each execute still allocates a few small blocks
  // of bookkeeping).
  gemm::GemmContext& ctx =
      opts.context != nullptr ? *opts.context : gemm::default_context();

  // Centroids are convex combinations of points, so both GEMM operands
  // share the points' scale context for the a-priori bound. Only a
  // contract reads it, so the scan is skipped without one.
  std::shared_ptr<const gemm::GemmPlan> plan;
  if (opts.precision_target > 0.0) {
    core::AccuracyContract contract;
    contract.max_abs_error = opts.precision_target;
    contract.a_scale = gemm::max_abs(points);
    contract.b_scale = contract.a_scale;
    const core::SchemeId scheme =
        core::require_feasible(core::resolve_contract(contract, dim));
    result.scheme = core::scheme_name(scheme);
    plan = ctx.plan_scheme(scheme, n, clusters, dim);
  } else {
    plan = ctx.plan(opts.backend, n, clusters, dim);
  }

  // The points never change, so an emulated plan splits them once, into a
  // kept pack every iteration's GEMM reads as A; the centroids, B =
  // centroids^T, are read transposed by the fill, never copied.
  gemm::KeptPack kept_points;
  const gemm::Operand a_points =
      plan->keep(ctx, gemm::Side::kA, points, kept_points);
  gemm::Matrix cross;
  std::vector<float> point_dist(n);
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    // Assignment step: distance matrix through the GEMM backend.
    plan->execute(ctx, a_points,
                  {result.centroids, gemm::Transpose::kTranspose}, nullptr,
                  cross);
    const std::vector<float> cn = gemm::row_norms(result.centroids);

    // Points are independent, so the assignment runs on the pool; the
    // inertia sum over the points stays serial.
    util::global_pool().parallel_for(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const float* cross_row = cross.row(i);
        int best = 0;
        float best_dist = std::numeric_limits<float>::max();
        for (std::size_t c = 0; c < clusters; ++c) {
          const float dist = pn[i] + cn[c] - 2.0f * cross_row[c];
          if (dist < best_dist) {
            best_dist = dist;
            best = static_cast<int>(c);
          }
        }
        result.assignment[i] = best;
        point_dist[i] = best_dist;
      }
    });
    double inertia = 0.0;
    for (const float dist : point_dist) {
      inertia += std::max(0.0, static_cast<double>(dist));
    }
    result.inertia = inertia;
    result.iterations = iter + 1;

    // Update step: new means (empty clusters keep their centroid).
    gemm::Matrix sums(clusters, dim);
    std::vector<std::size_t> counts(clusters, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(result.assignment[i]);
      ++counts[c];
      const float* row = points.row(i);
      float* sum = sums.row(c);
      for (std::size_t d = 0; d < dim; ++d) sum[d] += row[d];
    }
    for (std::size_t c = 0; c < clusters; ++c) {
      if (counts[c] == 0) continue;
      const auto inv = 1.0f / static_cast<float>(counts[c]);
      for (std::size_t d = 0; d < dim; ++d) {
        result.centroids.at(c, d) = sums.at(c, d) * inv;
      }
    }

    if (prev_inertia - inertia <= opts.tolerance * std::max(1.0, inertia)) {
      result.converged = true;
      break;
    }
    prev_inertia = inertia;
  }
  return result;
}

double kmeans_inertia(const gemm::Matrix& points, const gemm::Matrix& centroids,
                      const std::vector<int>& assignment) {
  EGEMM_EXPECTS(assignment.size() == points.rows());
  double total = 0.0;
  for (std::size_t i = 0; i < points.rows(); ++i) {
    const auto c = static_cast<std::size_t>(assignment[i]);
    EGEMM_EXPECTS(c < centroids.rows());
    for (std::size_t d = 0; d < points.cols(); ++d) {
      const double diff = static_cast<double>(points.at(i, d)) -
                          static_cast<double>(centroids.at(c, d));
      total += diff * diff;
    }
  }
  return total;
}

}  // namespace egemm::apps
