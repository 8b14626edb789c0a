// Tests for the double-double oracle GEMM, the binary32 ulp helpers, and
// the a-priori error-bound model (DESIGN.md §11).
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/scheme.hpp"
#include "fp/float_bits.hpp"
#include "gemm/matrix.hpp"
#include "verify/oracle.hpp"

namespace egemm::verify {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(F32UlpAt, NormalRange) {
  EXPECT_DOUBLE_EQ(fp::f32_ulp_at(1.0), 0x1.0p-23);
  EXPECT_DOUBLE_EQ(fp::f32_ulp_at(-1.0), 0x1.0p-23);
  EXPECT_DOUBLE_EQ(fp::f32_ulp_at(1.5), 0x1.0p-23);
  EXPECT_DOUBLE_EQ(fp::f32_ulp_at(2.0), 0x1.0p-22);
  EXPECT_DOUBLE_EQ(fp::f32_ulp_at(0x1.0p-126), 0x1.0p-149);
}

TEST(F32UlpAt, SubnormalAndOverflowClamps) {
  EXPECT_DOUBLE_EQ(fp::f32_ulp_at(0.0), 0x1.0p-149);
  EXPECT_DOUBLE_EQ(fp::f32_ulp_at(0x1.0p-140), 0x1.0p-149);
  EXPECT_DOUBLE_EQ(fp::f32_ulp_at(0x1.0p-300), 0x1.0p-149);
  EXPECT_DOUBLE_EQ(fp::f32_ulp_at(0x1.0p128), 0x1.0p104);
  EXPECT_DOUBLE_EQ(fp::f32_ulp_at(kInf), 0x1.0p104);
  EXPECT_TRUE(std::isnan(fp::f32_ulp_at(std::nan(""))));
}

TEST(UlpError, Conventions) {
  EXPECT_DOUBLE_EQ(fp::ulp_error(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(fp::ulp_error(1.0, 1.0 + 0x1.0p-23), 1.0);
  EXPECT_DOUBLE_EQ(fp::ulp_error(2.0, 2.0 - 0x1.0p-22), 1.0);
  // NaN agrees with NaN; NaN vs a number is infinitely wrong.
  EXPECT_DOUBLE_EQ(fp::ulp_error(std::nan(""), std::nan("")), 0.0);
  EXPECT_DOUBLE_EQ(fp::ulp_error(std::nan(""), 1.0), kInf);
  EXPECT_DOUBLE_EQ(fp::ulp_error(1.0, std::nan("")), kInf);
  // Matching infinities agree; anything else against Inf does not.
  EXPECT_DOUBLE_EQ(fp::ulp_error(kInf, kInf), 0.0);
  EXPECT_DOUBLE_EQ(fp::ulp_error(-kInf, -kInf), 0.0);
  EXPECT_DOUBLE_EQ(fp::ulp_error(kInf, -kInf), kInf);
  EXPECT_DOUBLE_EQ(fp::ulp_error(kInf, 1.0), kInf);
}

TEST(OracleGemm, SmallIntegerCaseIsExact) {
  gemm::Matrix a(2, 3), b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  const float av[] = {1, 2, 3, 4, 5, 6};
  const float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(std::begin(av), std::end(av), a.data().begin());
  std::copy(std::begin(bv), std::end(bv), b.data().begin());
  const OracleMatrix d = oracle_gemm(a, b);
  EXPECT_DOUBLE_EQ(d.value(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(d.value(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(d.value(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(d.value(1, 1), 154.0);
  EXPECT_DOUBLE_EQ(d.lo.at(0, 0), 0.0);
}

TEST(OracleGemm, AddsCExactly) {
  gemm::Matrix a(1, 1), b(1, 1), c(1, 1);
  a.at(0, 0) = 3.0f;
  b.at(0, 0) = 5.0f;
  c.at(0, 0) = -14.0f;
  const OracleMatrix d = oracle_gemm(a, b, &c);
  EXPECT_DOUBLE_EQ(d.value(0, 0), 1.0);
}

TEST(OracleGemm, ExactCancellationLeavesTinyTail) {
  // [x, -x, t] . [y, y, 1]: the pair cancels exactly in double-double, so
  // the result is t on the nose -- the property a plain double accumulator
  // cannot deliver once |x*y| >> |t|.
  gemm::Matrix a(1, 3), b(3, 1);
  a.at(0, 0) = 0x1.234568p20f;
  a.at(0, 1) = -0x1.234568p20f;
  a.at(0, 2) = 0x1.0p-40f;
  b.at(0, 0) = 0x1.9abcdep10f;
  b.at(1, 0) = 0x1.9abcdep10f;
  b.at(2, 0) = 1.0f;
  const OracleMatrix d = oracle_gemm(a, b);
  EXPECT_DOUBLE_EQ(d.value(0, 0), 0x1.0p-40);
}

TEST(OracleGemm, DoubleDoubleHoldsBeyondDoublePrecision) {
  // 1 + 2^-60 cannot live in one double, but survives in the hi/lo pair.
  gemm::Matrix a(1, 2), b(2, 1);
  a.at(0, 0) = 1.0f;
  a.at(0, 1) = 0x1.0p-60f;
  b.at(0, 0) = 1.0f;
  b.at(1, 0) = 1.0f;
  const OracleMatrix d = oracle_gemm(a, b);
  EXPECT_DOUBLE_EQ(d.hi.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.lo.at(0, 0), 0x1.0p-60);
}

TEST(OracleGemm, IeeePropagation) {
  gemm::Matrix a(1, 2), b(2, 1);
  a.at(0, 0) = 0.0f;
  a.at(0, 1) = 1.0f;
  b.at(0, 0) = std::numeric_limits<float>::infinity();
  b.at(1, 0) = 1.0f;
  // 0 * Inf must poison the sum, not be skipped as "zero times anything".
  EXPECT_TRUE(std::isnan(oracle_gemm(a, b).value(0, 0)));
}

using core::BoundInputs;
using core::ErrorBound;
using core::SchemeProfile;
using core::scheme_element_bound;

SchemeProfile round_profile() { return SchemeProfile{}; }

SchemeProfile markidis_profile() {
  SchemeProfile p;
  p.split = core::SplitMethod::kTruncateSplit;
  p.set_term(1, 1, false);  // lo x lo dropped
  return p;
}

/// Raw RN16 inputs: one plane, one term.
SchemeProfile half_profile() {
  SchemeProfile p;
  p.planes = 1;
  p.term_mask = 0x1;
  return p;
}

TEST(ErrorModel, KZeroMeansExactCopy) {
  const ErrorBound bound =
      scheme_element_bound(round_profile(), BoundInputs{0, 1.0, 1.0, 10.0});
  EXPECT_EQ(bound.worst_abs, 0.0);
  EXPECT_EQ(bound.expected_abs, 0.0);
}

TEST(ErrorModel, GrowsWithK) {
  const BoundInputs small{8, 1.0, 1.0, 0.0};
  const BoundInputs large{512, 1.0, 1.0, 0.0};
  EXPECT_LT(scheme_element_bound(round_profile(), small).worst_abs,
            scheme_element_bound(round_profile(), large).worst_abs);
}

TEST(ErrorModel, RoundSplitTighterThanTruncate) {
  SchemeProfile truncate;
  truncate.split = core::SplitMethod::kTruncateSplit;
  const BoundInputs in{64, 1.0, 1.0, 0.0};
  EXPECT_LT(scheme_element_bound(round_profile(), in).split_term,
            scheme_element_bound(truncate, in).split_term);
}

TEST(ErrorModel, MarkidisPaysForTheDroppedTerm) {
  const BoundInputs in{64, 1.0, 1.0, 0.0};
  EXPECT_EQ(scheme_element_bound(round_profile(), in).dropped_term, 0.0);
  EXPECT_GT(scheme_element_bound(markidis_profile(), in).dropped_term, 0.0);
}

TEST(ErrorModel, HalfOnlyIsOrdersOfMagnitudeLooser) {
  // Small k keeps the binary32 accumulation term (shared by both paths,
  // quadratic in k) from masking the representation gap under test.
  const BoundInputs in{8, 1.0, 1.0, 0.0};
  EXPECT_GT(scheme_element_bound(half_profile(), in).worst_abs,
            100.0 * scheme_element_bound(round_profile(), in).worst_abs);
  // One plane is one binary16 rounding: half an ulp, 2^-11 relative.
  EXPECT_EQ(scheme_element_bound(half_profile(), in).split_term,
            8.0 * (2.0 * 0x1.0p-11 + 0x1.0p-22));
}

TEST(ErrorModel, SubnormalFloorsKeepBoundsPositive) {
  // Scale-relative terms vanish at scale 0, but the binary16 subnormal
  // quantum does not: the bound must stay positive so underflow-dropped
  // products are covered.
  const ErrorBound bound =
      scheme_element_bound(round_profile(), BoundInputs{4, 0.0, 0.0, 0.0});
  EXPECT_GT(bound.worst_abs, 0.0);
  EXPECT_GE(core::split_residual_bound(core::SplitMethod::kRoundSplit, 0.0),
            0x1.0p-25);
  EXPECT_GE(core::split_residual_bound(core::SplitMethod::kTruncateSplit, 0.0),
            0x1.0p-24);
}

TEST(ErrorModel, TermCountMatchesProfile) {
  EXPECT_EQ(round_profile().term_count(), 4);
  EXPECT_EQ(markidis_profile().term_count(), 3);
  EXPECT_EQ(half_profile().term_count(), 1);
  EXPECT_EQ(core::classify_scheme(half_profile()), core::SchemeId::kHalf);
}

}  // namespace
}  // namespace egemm::verify
