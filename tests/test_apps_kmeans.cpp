// Tests for GEMM-based kMeans (apps/kmeans.hpp).
#include "apps/kmeans.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/dataset.hpp"
#include "core/scheme.hpp"

namespace egemm::apps {
namespace {

/// Cluster purity against the generating labels: fraction of points whose
/// cluster's majority true-label matches their own.
double purity(const std::vector<int>& assignment,
              const std::vector<int>& truth, int clusters) {
  std::vector<std::map<int, int>> votes(static_cast<std::size_t>(clusters));
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    ++votes[static_cast<std::size_t>(assignment[i])][truth[i]];
  }
  std::size_t correct = 0;
  for (const auto& cluster_votes : votes) {
    int best = 0;
    for (const auto& [label, count] : cluster_votes) {
      best = std::max(best, count);
      (void)label;
    }
    correct += static_cast<std::size_t>(best);
  }
  return static_cast<double>(correct) /
         static_cast<double>(assignment.size());
}

class KMeansBackendTest : public ::testing::TestWithParam<gemm::Backend> {};

TEST_P(KMeansBackendTest, RecoversWellSeparatedMixture) {
  const PointCloud cloud = gaussian_mixture(600, 16, 4, 0.02, 11);
  KMeansOptions opts;
  opts.clusters = 4;
  opts.backend = GetParam();
  opts.seed = 5;
  const KMeansResult result = kmeans(cloud.points, opts);
  EXPECT_GE(purity(result.assignment, cloud.true_labels, 4), 0.95)
      << gemm::backend_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Backends, KMeansBackendTest,
                         ::testing::Values(gemm::Backend::kEgemmTC,
                                           gemm::Backend::kCublasFp32));

TEST(KMeans, InertiaMatchesOracle) {
  const PointCloud cloud = gaussian_mixture(300, 8, 3, 0.05, 12);
  KMeansOptions opts;
  opts.clusters = 3;
  const KMeansResult result = kmeans(cloud.points, opts);
  const double oracle =
      kmeans_inertia(cloud.points, result.centroids, result.assignment);
  // The GEMM-based distances run in fp32; allow a loose relative band.
  EXPECT_NEAR(result.inertia, oracle, 0.05 * oracle + 1e-3);
}

TEST(KMeans, AssignmentIsNearestCentroid) {
  const PointCloud cloud = gaussian_mixture(200, 8, 3, 0.1, 13);
  KMeansOptions opts;
  opts.clusters = 3;
  const KMeansResult result = kmeans(cloud.points, opts);
  for (std::size_t i = 0; i < cloud.points.rows(); ++i) {
    double assigned_dist = 0.0, best_dist = 1e300;
    for (int c = 0; c < 3; ++c) {
      double acc = 0.0;
      for (std::size_t d = 0; d < cloud.points.cols(); ++d) {
        const double diff =
            static_cast<double>(cloud.points.at(i, d)) -
            static_cast<double>(result.centroids.at(static_cast<std::size_t>(c), d));
        acc += diff * diff;
      }
      if (c == result.assignment[i]) assigned_dist = acc;
      best_dist = std::min(best_dist, acc);
    }
    // Within fp32 rounding of the best.
    EXPECT_LE(assigned_dist, best_dist + 1e-3);
  }
}

TEST(KMeans, DeterministicBySeed) {
  const PointCloud cloud = gaussian_mixture(200, 8, 3, 0.1, 14);
  KMeansOptions opts;
  opts.clusters = 3;
  const KMeansResult a = kmeans(cloud.points, opts);
  const KMeansResult b = kmeans(cloud.points, opts);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(KMeans, ConvergesOnEasyData) {
  const PointCloud cloud = gaussian_mixture(400, 8, 4, 0.01, 15);
  KMeansOptions opts;
  opts.clusters = 4;
  opts.max_iterations = 50;
  const KMeansResult result = kmeans(cloud.points, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 50);
}

TEST(KMeans, SingleClusterDegenerates) {
  const PointCloud cloud = uniform_cloud(50, 4, -1.0f, 1.0f, 16);
  KMeansOptions opts;
  opts.clusters = 1;
  const KMeansResult result = kmeans(cloud.points, opts);
  for (const int a : result.assignment) EXPECT_EQ(a, 0);
  // The single centroid is the mean of all points.
  for (std::size_t d = 0; d < cloud.points.cols(); ++d) {
    double mean = 0.0;
    for (std::size_t i = 0; i < cloud.points.rows(); ++i) {
      mean += static_cast<double>(cloud.points.at(i, d));
    }
    mean /= static_cast<double>(cloud.points.rows());
    EXPECT_NEAR(result.centroids.at(0, d), mean, 1e-4);
  }
}

TEST(KMeans, InertiaNeverIncreasesAcrossIterations) {
  // Run with increasing max_iterations and check the final inertia is
  // monotone non-increasing (Lloyd's algorithm invariant).
  const PointCloud cloud = gaussian_mixture(300, 8, 5, 0.2, 17);
  double prev = 1e300;
  for (int iters = 1; iters <= 9; iters += 2) {
    KMeansOptions opts;
    opts.clusters = 5;
    opts.max_iterations = iters;
    opts.tolerance = 0.0;  // disable early stop
    const KMeansResult result = kmeans(cloud.points, opts);
    EXPECT_LE(result.inertia, prev * (1.0 + 1e-6)) << "iters=" << iters;
    prev = result.inertia;
  }
}

TEST(KMeans, PrecisionTargetRunsTheResolvedRungOrThrows) {
  const PointCloud cloud = uniform_cloud(300, 12, -1.0f, 1.0f, 31);
  KMeansOptions opts;
  opts.clusters = 4;
  opts.max_iterations = 3;
  // Centroids share the points' scale context (they are convex
  // combinations of points); the GEMM's k is the dimension.
  core::AccuracyContract contract;
  contract.a_scale = gemm::max_abs(cloud.points);
  contract.b_scale = contract.a_scale;
  contract.max_abs_error = opts.precision_target = 1e-4;
  const core::ContractResolution feasible =
      core::resolve_contract(contract, cloud.points.cols());
  ASSERT_TRUE(feasible.feasible);
  EXPECT_STREQ(kmeans(cloud.points, opts).scheme,
               core::scheme_name(feasible.scheme));

  contract.max_abs_error = opts.precision_target = 1e-30;
  const core::ContractResolution infeasible =
      core::resolve_contract(contract, cloud.points.cols());
  ASSERT_FALSE(infeasible.feasible);
  try {
    static_cast<void>(kmeans(cloud.points, opts));
    FAIL() << "an infeasible target must throw";
  } catch (const std::invalid_argument& error) {
    const std::string tightest =
        std::string("tightest rung (") +
        core::scheme_name(infeasible.tightest) + ")";
    EXPECT_NE(std::string(error.what()).find(tightest), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace egemm::apps
