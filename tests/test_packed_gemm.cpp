// The packed execution engine's contract (DESIGN.md §10): bit-identical to
// the scalar oracle (verify::reference_execute) across every shape, split
// method, combo order, ladder rung, and C-accumulation variant -- including
// shapes smaller than one tile, odd k, and k = 1, where the padding and
// remainder paths differ most between the engine and the oracle.
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheme.hpp"
#include "core/split.hpp"
#include "gemm/egemm.hpp"
#include "gemm/plan.hpp"
#include "verify/reference_execute.hpp"

namespace egemm::gemm {
namespace {

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.data().empty() ||
          std::memcmp(x.data().data(), y.data().data(),
                      x.data().size() * sizeof(float)) == 0);
}

/// Executes `plan` on the packed engine (default context).
Matrix run_packed(const GemmPlan& plan, const Matrix& a, const Matrix& b,
                  const Matrix* c) {
  Matrix d;
  plan.execute(default_context(), a, b, c, d);
  return d;
}

/// The default EGEMM-TC plan egemm_multiply runs for these operands.
std::shared_ptr<const GemmPlan> egemm_plan(const Matrix& a, const Matrix& b) {
  return default_context().plan(Backend::kEgemmTC, a.rows(), b.cols(),
                                a.cols());
}

struct Shape {
  std::size_t m, n, k;
};

// Below-tile extents, odd k, k = 1, exact multiples, and ragged edges on
// every dimension.
const Shape kShapes[] = {
    {1, 1, 1},    {3, 5, 1},     {16, 16, 16}, {16, 16, 3},
    {5, 3, 31},   {17, 16, 1},   {33, 65, 47}, {64, 64, 64},
    {128, 64, 96}, {16, 48, 17}, {2, 2, 2},    {31, 1, 63},
};

class PackedEngineTest : public ::testing::TestWithParam<Shape> {};

TEST_P(PackedEngineTest, BitIdenticalAcrossSplitsOrdersAndC) {
  const Shape s = GetParam();
  const Matrix a = random_matrix(s.m, s.k, -1, 1, 1000 + s.m + s.k);
  const Matrix b = random_matrix(s.k, s.n, -1, 1, 2000 + s.n + s.k);
  const Matrix c = random_matrix(s.m, s.n, -1, 1, 3000 + s.m + s.n);

  static constexpr PlaneCombo kAlg1[] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  GemmContext& ctx = default_context();
  for (const auto split : {core::SplitMethod::kRoundSplit,
                           core::SplitMethod::kTruncateSplit}) {
    for (const auto order :
         {ComboOrder::kFusedPerTile, ComboOrder::kSeparatePasses}) {
      const auto plan =
          ctx.plan_emulated(s.m, s.n, s.k, split, kAlg1, order);
      for (const Matrix* cp : {static_cast<const Matrix*>(nullptr), &c}) {
        EXPECT_TRUE(bitwise_equal(run_packed(*plan, a, b, cp),
                                  verify::reference_execute(*plan, a, b, cp)))
            << "shape " << s.m << "x" << s.n << "x" << s.k
            << " split=" << core::split_method_name(split)
            << " order=" << (order == ComboOrder::kFusedPerTile ? "fused"
                                                                : "separate")
            << " c=" << (cp != nullptr);
      }
    }
  }
  // Every rung of the emulation ladder, as plan_scheme builds it.
  for (std::size_t r = 0; r < core::kSchemeCount; ++r) {
    const auto scheme = static_cast<core::SchemeId>(r);
    const auto plan = ctx.plan_scheme(scheme, s.m, s.n, s.k);
    for (const Matrix* cp : {static_cast<const Matrix*>(nullptr), &c}) {
      EXPECT_TRUE(bitwise_equal(run_packed(*plan, a, b, cp),
                                verify::reference_execute(*plan, a, b, cp)))
          << "shape " << s.m << "x" << s.n << "x" << s.k
          << " scheme=" << core::scheme_name(scheme)
          << " c=" << (cp != nullptr);
    }
  }
}

TEST_P(PackedEngineTest, ThreeSplitBitIdentical) {
  const Shape s = GetParam();
  const Matrix a = random_matrix(s.m, s.k, -1, 1, 4000 + s.m);
  const Matrix b = random_matrix(s.k, s.n, -1, 1, 5000 + s.n);
  const Matrix c = random_matrix(s.m, s.n, -1, 1, 6000 + s.k);
  const auto plan = default_context().plan_scheme(core::SchemeId::kRecovery3,
                                                  s.m, s.n, s.k);
  EXPECT_TRUE(bitwise_equal(run_packed(*plan, a, b, &c),
                            verify::reference_execute(*plan, a, b, &c)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackedEngineTest, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<Shape>& shape) {
      return std::to_string(shape.param.m) + "x" +
             std::to_string(shape.param.n) + "x" +
             std::to_string(shape.param.k);
    });

TEST(PackedEngine, EgemmMultiplyUsesPackedByDefault) {
  const Matrix a = random_matrix(40, 24, -1, 1, 7);
  const Matrix b = random_matrix(24, 56, -1, 1, 8);
  EXPECT_TRUE(bitwise_equal(
      egemm_multiply(a, b),
      verify::reference_execute(*egemm_plan(a, b), a, b, nullptr)));
}

TEST(PackedEngine, WideValueRangeStaysBitIdentical) {
  // Values spanning many binades (plus exact zeros) exercise the rounding
  // and subnormal paths of the batched split as well as -0/+0 handling in
  // the padded lanes.
  Matrix a = random_matrix(37, 29, -1024.0f, 1024.0f, 11);
  Matrix b = random_matrix(29, 41, -1e-6f, 1e-6f, 12);
  a.at(0, 0) = 0.0f;
  a.at(1, 1) = -0.0f;
  b.at(0, 0) = -0.0f;
  EXPECT_TRUE(bitwise_equal(
      egemm_multiply(a, b),
      verify::reference_execute(*egemm_plan(a, b), a, b, nullptr)));
}

TEST(PackedEngine, SpecialValuesStayBitIdentical) {
  // NaN/Inf/signed-zero/denormal inputs: the engine and the oracle must
  // produce the same bits, including the canonical NaN the modeled
  // hardware emits (payload-propagation differences between scalar and
  // vector x86 code are exactly what the canonicalizing store erases).
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::nanf("");
  Matrix a = random_matrix(21, 19, -2, 2, 31);
  Matrix b = random_matrix(19, 23, -2, 2, 32);
  Matrix c = random_matrix(21, 23, -2, 2, 33);
  a.at(0, 0) = kNan;
  a.at(1, 2) = kInf;
  a.at(2, 4) = -kInf;
  a.at(3, 6) = 0x1.0p-140f;  // binary32 denormal
  a.at(4, 8) = -0.0f;
  a.at(5, 10) = 65520.0f;  // splits to an infinite hi plane
  b.at(0, 1) = kNan;
  b.at(2, 3) = kInf;
  b.at(4, 5) = 0.0f;  // meets Inf rows: 0 * Inf = NaN inside the dot
  b.at(6, 7) = 0x1.0p-149f;
  c.at(0, 5) = kNan;
  c.at(1, 6) = -kInf;

  for (const Matrix* cp :
       {static_cast<const Matrix*>(nullptr), static_cast<const Matrix*>(&c)}) {
    const Matrix packed = egemm_multiply(a, b, cp);
    const Matrix scalar =
        verify::reference_execute(*egemm_plan(a, b), a, b, cp);
    EXPECT_TRUE(bitwise_equal(packed, scalar)) << "c=" << (cp != nullptr);
    // And the NaNs that do appear are canonical (positive quiet NaN).
    for (const float v : packed.data()) {
      if (std::isnan(v)) {
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        EXPECT_EQ(bits, 0x7fc00000u);
      }
    }
  }
}

TEST(PackedEngine, EmptyShapesAgreeAndHaveTheRightSize) {
  // m*n*k = 0: every combination of an empty extent must work on the
  // engine and the oracle and agree bitwise (k = 0 means D is a copy of C).
  for (const auto [m, n, k] :
       {std::array<std::size_t, 3>{0, 4, 3}, std::array<std::size_t, 3>{4, 0, 3},
        std::array<std::size_t, 3>{4, 3, 0}, std::array<std::size_t, 3>{0, 0, 0}}) {
    const Matrix a = random_matrix(m, k, -1, 1, 41);
    const Matrix b = random_matrix(k, n, -1, 1, 42);
    const Matrix c = random_matrix(m, n, -1, 1, 43);
    const Matrix packed = egemm_multiply(a, b, &c);
    const Matrix scalar =
        verify::reference_execute(*egemm_plan(a, b), a, b, &c);
    EXPECT_EQ(packed.rows(), m);
    EXPECT_EQ(packed.cols(), n);
    EXPECT_TRUE(bitwise_equal(packed, scalar))
        << m << "x" << n << "x" << k;
    if (k == 0 && m > 0 && n > 0) {
      EXPECT_TRUE(bitwise_equal(packed, c));  // D = C exactly
    }
  }
}

#ifndef NDEBUG
TEST(PackedEngine, SplitsEachInputExactlyOncePerCall) {
  // The plane cache is the point: one split + widen per input matrix per
  // GEMM call, no re-splitting anywhere downstream.
  const Matrix a = random_matrix(48, 33, -1, 1, 21);
  const Matrix b = random_matrix(33, 50, -1, 1, 22);
  const std::uint64_t before = core::debug_split_elements();
  (void)egemm_multiply(a, b);
  EXPECT_EQ(core::debug_split_elements() - before,
            a.data().size() + b.data().size());

  const auto plan3 = default_context().plan_scheme(
      core::SchemeId::kRecovery3, a.rows(), b.cols(), a.cols());
  const std::uint64_t before3 = core::debug_split_elements();
  (void)run_packed(*plan3, a, b, nullptr);
  EXPECT_EQ(core::debug_split_elements() - before3,
            a.data().size() + b.data().size());
}
#endif

}  // namespace
}  // namespace egemm::gemm
