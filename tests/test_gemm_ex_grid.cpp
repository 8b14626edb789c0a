// gemm_ex over the full (trans_a, trans_b) x (alpha, beta) grid, checked
// against the double-double oracle (verify/): every element must land
// within the a-priori kernel bound scaled by the epilogue, for each
// scaling configuration. The fast paths (alpha = 1, beta in {0, 1}) are
// additionally required to be bitwise identical to the backend's plan
// executed directly -- they must ride the kernel accumulator, not the
// epilogue.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/scheme.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/plan.hpp"
#include "verify/oracle.hpp"

namespace egemm::gemm {
namespace {

constexpr std::size_t kM = 24;
constexpr std::size_t kN = 20;
constexpr std::size_t kK = 36;

struct GridInputs {
  Matrix op_a;  ///< m x k, the logical (post-op) operand
  Matrix op_b;  ///< k x n
  Matrix a;     ///< as stored (transposed when trans_a)
  Matrix b;
  Matrix c;     ///< m x n
};

GridInputs make_inputs(Transpose trans_a, Transpose trans_b) {
  GridInputs in;
  in.op_a = random_matrix(kM, kK, -2.0f, 2.0f, 101);
  in.op_b = random_matrix(kK, kN, -2.0f, 2.0f, 102);
  in.a = trans_a == Transpose::kTranspose ? transpose(in.op_a) : in.op_a;
  in.b = trans_b == Transpose::kTranspose ? transpose(in.op_b) : in.op_b;
  in.c = random_matrix(kM, kN, -4.0f, 4.0f, 103);
  return in;
}

/// Worst-case |error| for D[i][j] = alpha * (op_a x op_b)[i][j] + beta * c:
/// the kernel bound scales by |alpha|, and the two binary32 epilogue
/// roundings (the alpha product and the beta fma) add 2 eps of the
/// intermediate magnitude `mag` = |alpha * (AB)| + |beta * c| (which
/// dominates |ref| when the two terms cancel).
double grid_bound(const core::ErrorBound& kernel, float alpha, double mag) {
  const double eps = static_cast<double>(std::numeric_limits<float>::epsilon());
  return std::fabs(static_cast<double>(alpha)) * kernel.worst_abs +
         2.0 * eps * mag + 1e-30;
}

TEST(GemmExGrid, EveryScalingConfigurationStaysInsideTheOracleBound) {
  const float alphas[] = {1.0f, 0.5f, -2.0f};
  const float betas[] = {0.0f, 1.0f, 0.75f};
  const Transpose ops[] = {Transpose::kNone, Transpose::kTranspose};

  for (const Transpose trans_a : ops) {
    for (const Transpose trans_b : ops) {
      const GridInputs in = make_inputs(trans_a, trans_b);
      const verify::OracleMatrix oracle =
          verify::oracle_gemm(in.op_a, in.op_b, nullptr);

      // Scale context per output element (same scheme as the
      // differential runner).
      std::vector<double> row_amax(kM, 0.0);
      for (std::size_t i = 0; i < kM; ++i) {
        for (std::size_t t = 0; t < kK; ++t) {
          row_amax[i] = std::max(
              row_amax[i], std::fabs(static_cast<double>(in.op_a.at(i, t))));
        }
      }
      std::vector<double> col_bmax(kN, 0.0);
      for (std::size_t t = 0; t < kK; ++t) {
        for (std::size_t j = 0; j < kN; ++j) {
          col_bmax[j] = std::max(
              col_bmax[j], std::fabs(static_cast<double>(in.op_b.at(t, j))));
        }
      }

      for (const float alpha : alphas) {
        for (const float beta : betas) {
          GemmExParams params;
          params.trans_a = trans_a;
          params.trans_b = trans_b;
          params.alpha = alpha;
          params.beta = beta;
          const Matrix* c = beta != 0.0f ? &in.c : nullptr;
          const Matrix d =
              gemm_ex(Backend::kEgemmTC, in.a, in.b, c, params);
          ASSERT_EQ(d.rows(), kM);
          ASSERT_EQ(d.cols(), kN);

          for (std::size_t i = 0; i < kM; ++i) {
            for (std::size_t j = 0; j < kN; ++j) {
              const double ref =
                  static_cast<double>(alpha) * oracle.value(i, j) +
                  static_cast<double>(beta) *
                      (c != nullptr
                           ? static_cast<double>(in.c.at(i, j))
                           : 0.0);
              core::BoundInputs context;
              context.k = kK;
              context.a_scale = row_amax[i];
              context.b_scale = col_bmax[j];
              // beta = 1 rides the kernel accumulator, where C feeds the
              // binary32 sum directly and widens the bound.
              context.c_abs =
                  (alpha == 1.0f && beta == 1.0f)
                      ? std::fabs(static_cast<double>(in.c.at(i, j)))
                      : 0.0;
              // EGEMM-TC's rung: round-split, all 4 terms.
              const core::ErrorBound kernel =
                  core::scheme_bound(core::SchemeId::kRound2, context);
              const double err =
                  std::fabs(static_cast<double>(d.at(i, j)) - ref);
              const double mag =
                  std::fabs(static_cast<double>(alpha) * oracle.value(i, j)) +
                  std::fabs(static_cast<double>(beta)) *
                      (c != nullptr
                           ? std::fabs(static_cast<double>(in.c.at(i, j)))
                           : 0.0);
              EXPECT_LE(err, grid_bound(kernel, alpha, mag))
                  << "trans_a=" << (trans_a == Transpose::kTranspose)
                  << " trans_b=" << (trans_b == Transpose::kTranspose)
                  << " alpha=" << alpha << " beta=" << beta << " at (" << i
                  << ", " << j << ")";
            }
          }
        }
      }
    }
  }
}

TEST(GemmExGrid, FastPathsAreBitwiseIdenticalToRunGemm) {
  const GridInputs in = make_inputs(Transpose::kNone, Transpose::kTranspose);
  GemmExParams params;
  params.trans_b = Transpose::kTranspose;

  const auto kernel = [&](const Matrix* c) {
    GemmContext& ctx = default_context();
    Matrix d;
    ctx.plan(Backend::kEgemmTC, in.op_a.rows(), in.op_b.cols(),
             in.op_a.cols())
        ->execute(ctx, in.op_a, in.op_b, c, d);
    return d;
  };

  // alpha = 1, beta = 0: pure kernel call.
  const Matrix d0 = gemm_ex(Backend::kEgemmTC, in.a, in.b, nullptr, params);
  const Matrix r0 = kernel(nullptr);
  ASSERT_EQ(d0.size(), r0.size());
  EXPECT_EQ(std::memcmp(d0.data().data(), r0.data().data(),
                        d0.size() * sizeof(float)),
            0);

  // alpha = 1, beta = 1: C rides the kernel accumulator.
  params.beta = 1.0f;
  const Matrix d1 = gemm_ex(Backend::kEgemmTC, in.a, in.b, &in.c, params);
  const Matrix r1 = kernel(&in.c);
  ASSERT_EQ(d1.size(), r1.size());
  EXPECT_EQ(std::memcmp(d1.data().data(), r1.data().data(),
                        d1.size() * sizeof(float)),
            0);
}

TEST(GemmExGrid, ExplicitContextMatchesTheDefaultContext) {
  GemmContext ctx;
  const GridInputs in = make_inputs(Transpose::kTranspose, Transpose::kNone);
  GemmExParams params;
  params.trans_a = Transpose::kTranspose;
  params.alpha = -0.5f;
  params.beta = 0.75f;
  const Matrix via_ctx = gemm_ex(ctx, Backend::kEgemmTC, in.a, in.b, &in.c,
                                 params);
  const Matrix via_default =
      gemm_ex(Backend::kEgemmTC, in.a, in.b, &in.c, params);
  ASSERT_EQ(via_ctx.size(), via_default.size());
  EXPECT_EQ(std::memcmp(via_ctx.data().data(), via_default.data().data(),
                        via_ctx.size() * sizeof(float)),
            0);
  EXPECT_GE(ctx.plan_misses(), 1u);
}

}  // namespace
}  // namespace egemm::gemm
