// Tests for GEMM-based PCA (apps/pca.hpp).
#include "apps/pca.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheme.hpp"
#include "gemm/gemm_api.hpp"
#include "util/rng.hpp"

namespace egemm::apps {
namespace {

/// Anisotropic Gaussian data with known principal axes: columns 0..dim-1
/// get standard deviations sigma[d], so the principal components are the
/// coordinate axes in decreasing sigma order.
gemm::Matrix anisotropic_cloud(std::size_t n, std::size_t dim,
                               const std::vector<double>& sigma,
                               std::uint64_t seed) {
  util::NormalSampler normal(seed);
  gemm::Matrix points(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) {
      points.at(i, d) = static_cast<float>(sigma[d] * normal.next());
    }
  }
  return points;
}

double axis_alignment(const gemm::Matrix& components, int component,
                      std::size_t axis) {
  double dot = 0.0;
  for (std::size_t d = 0; d < components.cols(); ++d) {
    const double v =
        static_cast<double>(components.at(static_cast<std::size_t>(component), d));
    if (d == axis) dot += v;
  }
  return std::fabs(dot);
}

class PcaBackendTest : public ::testing::TestWithParam<gemm::Backend> {};

TEST_P(PcaBackendTest, RecoversKnownAxes) {
  const std::vector<double> sigma = {4.0, 2.0, 1.0, 0.5, 0.25, 0.25, 0.25, 0.25};
  const gemm::Matrix points = anisotropic_cloud(3000, 8, sigma, 31);
  PcaOptions opts;
  opts.components = 3;
  opts.backend = GetParam();
  const PcaResult result = pca_power(points, opts);
  // The first three components align with axes 0, 1, 2.
  for (int c = 0; c < 3; ++c) {
    EXPECT_GT(axis_alignment(result.components, c,
                             static_cast<std::size_t>(c)),
              0.95)
        << gemm::backend_name(GetParam()) << " component " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PcaBackendTest,
                         ::testing::Values(gemm::Backend::kEgemmTC,
                                           gemm::Backend::kCublasFp32));

TEST(Pca, ExplainedVarianceMatchesGeneratingSpectrum) {
  const std::vector<double> sigma = {3.0, 1.5, 0.5, 0.1};
  const gemm::Matrix points = anisotropic_cloud(5000, 4, sigma, 32);
  PcaOptions opts;
  opts.components = 4;
  const PcaResult result = pca_power(points, opts);
  ASSERT_EQ(result.explained_variance.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    const double expected = sigma[c] * sigma[c];
    EXPECT_NEAR(result.explained_variance[c], expected, 0.15 * expected + 0.01)
        << c;
  }
  // Descending order.
  for (std::size_t c = 1; c < 4; ++c) {
    EXPECT_LE(result.explained_variance[c],
              result.explained_variance[c - 1] * 1.0001);
  }
}

TEST(Pca, ComponentsAreOrthonormal) {
  const std::vector<double> sigma = {2.0, 1.0, 0.5, 0.25, 0.125, 0.1};
  const gemm::Matrix points = anisotropic_cloud(2000, 6, sigma, 33);
  PcaOptions opts;
  opts.components = 4;
  const PcaResult result = pca_power(points, opts);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b <= a; ++b) {
      double dot = 0.0;
      for (std::size_t d = 0; d < 6; ++d) {
        dot += static_cast<double>(
                   result.components.at(static_cast<std::size_t>(a), d)) *
               static_cast<double>(
                   result.components.at(static_cast<std::size_t>(b), d));
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 0.02) << a << "," << b;
    }
  }
}

TEST(Pca, MeanIsRemoved) {
  util::Xoshiro256 rng(34);
  gemm::Matrix points(500, 3);
  for (std::size_t i = 0; i < 500; ++i) {
    points.at(i, 0) = 10.0f + rng.uniform(-0.5f, 0.5f);
    points.at(i, 1) = -4.0f + rng.uniform(-0.1f, 0.1f);
    points.at(i, 2) = rng.uniform(-1.0f, 1.0f);
  }
  PcaOptions opts;
  opts.components = 1;
  const PcaResult result = pca_power(points, opts);
  EXPECT_NEAR(result.mean[0], 10.0f, 0.1f);
  EXPECT_NEAR(result.mean[1], -4.0f, 0.1f);
  // Dominant variance is axis 2 (the offsets were removed).
  EXPECT_GT(axis_alignment(result.components, 0, 2), 0.95);
}

TEST(Pca, DeterministicBySeed) {
  const std::vector<double> sigma = {2.0, 1.0, 0.3};
  const gemm::Matrix points = anisotropic_cloud(800, 3, sigma, 35);
  PcaOptions opts;
  opts.components = 2;
  const PcaResult a = pca_power(points, opts);
  const PcaResult b = pca_power(points, opts);
  for (std::size_t i = 0; i < a.components.size(); ++i) {
    EXPECT_EQ(a.components.data()[i], b.components.data()[i]);
  }
}

TEST(PcaTiming, GemmDominatesAndEgemmAccelerates) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  PcaWorkload workload;  // 16384 points x 512 dims
  const AppTiming base = pca_timing(workload, gemm::Backend::kCublasFp32, spec);
  const AppTiming fast = pca_timing(workload, gemm::Backend::kEgemmTC, spec);
  EXPECT_GT(base.gemm_fraction, 0.5);
  const double speedup = base.total_seconds / fast.total_seconds;
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 3.2);
}

TEST(Pca, PrecisionTargetRunsTheResolvedRungOrThrows) {
  const gemm::Matrix points = anisotropic_cloud(200, 6, {2.0, 1.5, 1.0, 0.6,
                                                         0.3, 0.1}, 43);
  PcaOptions opts;
  opts.components = 2;
  // The covariance GEMM's scale context is max |X_c|, both operands; the
  // resolution folds in the 1/(n-1) alpha epilogue. Center the data the
  // way the app does: column means summed in binary64, rounded once.
  const std::size_t n = points.rows();
  gemm::Matrix centered = points;
  for (std::size_t d = 0; d < points.cols(); ++d) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += static_cast<double>(points.at(i, d));
    }
    const auto mean = static_cast<float>(sum / static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) centered.at(i, d) -= mean;
  }
  gemm::GemmExParams params;
  params.alpha = 1.0f / static_cast<float>(n - 1);
  core::AccuracyContract contract;
  contract.a_scale = gemm::max_abs(centered);
  contract.b_scale = contract.a_scale;
  const auto resolve = [&](double target) {
    contract.max_abs_error = opts.precision_target = target;
    return gemm::gemm_ex_contract_resolution(gemm::transpose(centered),
                                             centered, nullptr, params,
                                             contract);
  };
  const core::ContractResolution feasible = resolve(3e-3);
  ASSERT_TRUE(feasible.feasible);
  EXPECT_STREQ(pca_power(points, opts).scheme,
               core::scheme_name(feasible.scheme));

  const core::ContractResolution infeasible = resolve(1e-30);
  ASSERT_FALSE(infeasible.feasible);
  try {
    static_cast<void>(pca_power(points, opts));
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
