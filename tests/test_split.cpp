// Tests for the data-split algorithms (core/split.hpp, Fig. 4).
#include "core/split.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "fp/float_bits.hpp"
#include "util/rng.hpp"

namespace egemm::core {
namespace {

double residual(float x, SplitMethod method) {
  const SplitHalves s = split_scalar(x, method);
  return std::fabs(static_cast<double>(x) - combine_scalar(s));
}

class SplitPropertyTest
    : public ::testing::TestWithParam<std::tuple<SplitMethod, std::uint64_t>> {
};

TEST_P(SplitPropertyTest, RepresentationErrorWithinBound) {
  const auto [method, seed] = GetParam();
  util::Xoshiro256 rng(seed);
  const double bound = split_error_bound(method, 1.0);
  for (int trial = 0; trial < 100000; ++trial) {
    const float x = rng.uniform(-1.0f, 1.0f);
    EXPECT_LE(residual(x, method), bound) << "x=" << x;
  }
}

TEST_P(SplitPropertyTest, HiIsTheRoundedHalf) {
  const auto [method, seed] = GetParam();
  const fp::Rounding mode = method == SplitMethod::kRoundSplit
                                ? fp::Rounding::kNearestEven
                                : fp::Rounding::kTowardZero;
  util::Xoshiro256 rng(seed);
  for (int trial = 0; trial < 50000; ++trial) {
    const float x = rng.uniform(-1.0f, 1.0f);
    const SplitHalves s = split_scalar(x, method);
    EXPECT_EQ(s.hi.bits(), fp::f32_to_f16_bits(x, mode));
  }
}

TEST_P(SplitPropertyTest, HalfRepresentableValuesSplitExactly) {
  const auto [method, seed] = GetParam();
  util::Xoshiro256 rng(seed);
  for (int trial = 0; trial < 50000; ++trial) {
    // Any value already in binary16 must split to (x, 0).
    const float x = fp::Half(rng.uniform(-1.0f, 1.0f)).to_float();
    const SplitHalves s = split_scalar(x, method);
    EXPECT_EQ(s.hi.to_float(), x);
    EXPECT_TRUE(s.lo.is_zero()) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndSeeds, SplitPropertyTest,
    ::testing::Combine(::testing::Values(SplitMethod::kRoundSplit,
                                         SplitMethod::kTruncateSplit),
                       ::testing::Values(17u, 99u)));

TEST(Split, TruncateResidualKeepsSign) {
  // Fig. 4a: with truncate-split the residual of a positive x is always
  // >= 0, so the sign bit of x_lo carries no information.
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 100000; ++trial) {
    const float x = rng.uniform(0.0f, 1.0f);
    const SplitHalves s = split_scalar(x, SplitMethod::kTruncateSplit);
    EXPECT_FALSE(s.lo.sign_bit() && !s.lo.is_zero()) << "x=" << x;
  }
}

TEST(Split, RoundSplitUsesTheSignBit) {
  // Fig. 4b: round-split produces negative residuals for about half of the
  // positive inputs -- that sign bit is the extra mantissa bit.
  util::Xoshiro256 rng(6);
  int negative = 0, total = 0;
  for (int trial = 0; trial < 100000; ++trial) {
    const float x = rng.uniform(0.0f, 1.0f);
    const SplitHalves s = split_scalar(x, SplitMethod::kRoundSplit);
    if (s.lo.is_zero()) continue;
    ++total;
    if (s.lo.sign_bit()) ++negative;
  }
  EXPECT_GT(negative, total / 4);
  EXPECT_LT(negative, 3 * total / 4);
}

TEST(Split, RoundSplitIsOneBitBetterOnAverage) {
  // §2.2: round-split achieves 1 extra mantissa bit, i.e. roughly half the
  // worst-case and mean representation error of truncate-split.
  util::Xoshiro256 rng(7);
  double sum_round = 0.0, sum_trunc = 0.0;
  double max_round = 0.0, max_trunc = 0.0;
  for (int trial = 0; trial < 200000; ++trial) {
    const float x = rng.uniform(-1.0f, 1.0f);
    const double r = residual(x, SplitMethod::kRoundSplit);
    const double t = residual(x, SplitMethod::kTruncateSplit);
    sum_round += r;
    sum_trunc += t;
    max_round = std::max(max_round, r);
    max_trunc = std::max(max_trunc, t);
  }
  EXPECT_LT(sum_round, 0.6 * sum_trunc);
  EXPECT_LT(max_round, 0.6 * max_trunc);
}

TEST(Split, EdgeCases) {
  for (const SplitMethod method :
       {SplitMethod::kRoundSplit, SplitMethod::kTruncateSplit}) {
    // Zeros split to zeros.
    EXPECT_TRUE(split_scalar(0.0f, method).hi.is_zero());
    EXPECT_TRUE(split_scalar(0.0f, method).lo.is_zero());
    EXPECT_TRUE(split_scalar(-0.0f, method).hi.sign_bit());
    // Max binary16 splits exactly.
    EXPECT_EQ(residual(65504.0f, method), 0.0);
    // Tiny values are fully captured by hi.
    EXPECT_EQ(residual(0x1.0p-20f, method), 0.0);
  }
  // Beyond the binary16 range the hi half saturates to infinity under
  // round-to-nearest, mirroring real Tensor Core input conversion.
  EXPECT_TRUE(split_scalar(1e6f, SplitMethod::kRoundSplit).hi.is_inf());
}

TEST(Split, SpanVariantsAgreeWithScalar) {
  util::Xoshiro256 rng(8);
  std::vector<float> input(257);
  for (auto& v : input) v = rng.uniform(-1.0f, 1.0f);
  // Signed zeros, binary16 subnormals (and values rounding into them), the
  // binary16 overflow edge, infinities and NaN payloads (quiet, signaling,
  // negative).
  for (const float edge :
       {0.0f, -0.0f, 0x1.0p-24f, -0x1.8p-23f, 0x1.ff8p-15f, 0x1.0p-25f,
        0x1.8p-25f, 65504.0f, -65504.0f, 65519.0f, 65520.0f, -65520.0f,
        INFINITY, -INFINITY, fp::f32_from_bits(0x7fc00001u),
        fp::f32_from_bits(0x7fa00000u), fp::f32_from_bits(0xffc12345u)}) {
    input.push_back(edge);
  }
  const std::size_t n = input.size();
  for (const SplitMethod method :
       {SplitMethod::kRoundSplit, SplitMethod::kTruncateSplit}) {
    const fp::Rounding mode = method == SplitMethod::kRoundSplit
                                  ? fp::Rounding::kNearestEven
                                  : fp::Rounding::kTowardZero;
    // Depth 1 is the raw binary16 input; depth 2 is split_scalar's hi/lo,
    // through the depth loop and through split_span_f32.
    std::vector<float> raw(n), hi(n), lo(n), hif(n), lof(n);
    float* const one[] = {raw.data()};
    float* const two[] = {hi.data(), lo.data()};
    split_planes_f32(input, one, method);
    split_planes_f32(input, two, method);
    split_span_f32(input, hif, lof, method);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(fp::f32_hex(input[i]));
      const SplitHalves s = split_scalar(input[i], method);
      EXPECT_EQ(fp::f32_bits(raw[i]),
                fp::f32_bits(fp::Half(input[i], mode).to_float()));
      EXPECT_EQ(fp::f32_bits(hi[i]), fp::f32_bits(s.hi.to_float()));
      EXPECT_EQ(fp::f32_bits(lo[i]), fp::f32_bits(s.lo.to_float()));
      EXPECT_EQ(fp::f32_bits(hif[i]), fp::f32_bits(hi[i]));
      EXPECT_EQ(fp::f32_bits(lof[i]), fp::f32_bits(lo[i]));
    }
  }
}

TEST(Split, EffectiveMantissaBitsMeetTable1) {
  // Table 1: extended precision carries 21 mantissa bits. Verify that
  // round-split reconstructs values with at least 2^-21 relative accuracy
  // for magnitudes spanning several binades.
  util::Xoshiro256 rng(9);
  for (int trial = 0; trial < 100000; ++trial) {
    const float x = rng.uniform(-8.0f, 8.0f);
    if (std::fabs(x) < 1e-3f) continue;
    const double rel = residual(x, SplitMethod::kRoundSplit) /
                       std::fabs(static_cast<double>(x));
    EXPECT_LE(rel, 0x1.0p-21) << "x=" << x;
  }
}

TEST(Split, MethodNames) {
  EXPECT_STREQ(split_method_name(SplitMethod::kRoundSplit), "round-split");
  EXPECT_STREQ(split_method_name(SplitMethod::kTruncateSplit),
               "truncate-split");
}

TEST(Split, HiPlaneBoundIsTheRn16Overshoot) {
  // scale (1 + 2^-10) + 2^-25: the one hi-plane bound the rung bounds and
  // the static-profile bound both read.
  EXPECT_EQ(hi_plane_bound(2.0), 0x1.0040004p+1);
  EXPECT_EQ(hi_plane_bound(0.0), 0x1.0p-25);
  // Every split method rounds its hi plane within it.
  for (const float x : {1.0f, 0.999f, 65504.0f, 0x1.ffcp-15f}) {
    for (const SplitMethod method :
         {SplitMethod::kRoundSplit, SplitMethod::kTruncateSplit}) {
      const double hi =
          static_cast<double>(split_scalar(x, method).hi.to_float());
      EXPECT_LE(std::fabs(hi), hi_plane_bound(static_cast<double>(x)))
          << "x=" << x;
    }
  }
}

}  // namespace
}  // namespace egemm::core
