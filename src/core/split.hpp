#pragma once
// Data-split algorithms (§3.2, Fig. 4).
//
// Both algorithms decompose a binary32 value x into two binary16 values
// (x_hi, x_lo) with x ~= x_hi + x_lo:
//
//  * truncate-split (Markidis [20], Fig. 4a): x_hi = RZ16(x),
//    x_lo = RZ16(x - x_hi). For positive x the residual is always >= 0, so
//    the sign bit of x_lo never carries information: 20 effective mantissa
//    bits.
//  * round-split (EGEMM-TC, Fig. 4b): x_hi = RN16(x), x_lo = RN16(x - x_hi).
//    Rounding x_hi to nearest makes the residual signed; the sign bit of
//    x_lo encodes the 21st bit, halving the representation error.
//
// In both cases the residual x - x_hi is computed exactly in binary32
// (the subtraction of nearby values is exact), so the only loss is the
// final rounding of the residual to binary16.
//
// Domain: |x| must be below 65520 (the binary16 overflow threshold);
// values at or above it split to an infinite x_hi, mirroring real Tensor
// Core input conversion.

#include <cstddef>
#include <cstdint>
#include <span>

#include "fp/half.hpp"

namespace egemm::core {

enum class SplitMethod {
  kRoundSplit,     ///< EGEMM-TC (Fig. 4b)
  kTruncateSplit,  ///< Markidis (Fig. 4a)
};

const char* split_method_name(SplitMethod method) noexcept;

struct SplitHalves {
  fp::Half hi;
  fp::Half lo;
};

/// Splits one binary32 value.
SplitHalves split_scalar(float x, SplitMethod method) noexcept;

/// Recombines a split pair; exact in binary64.
double combine_scalar(SplitHalves halves) noexcept;

/// Most planes a split produces (the three-way split below).
inline constexpr std::size_t kMaxSplitPlanes = 3;

/// Splits a matrix/vector into planes.size() planes (1 to kMaxSplitPlanes)
/// stored as binary32 values that are exactly binary16-representable, by
/// split depth and rounding every level with `method`: plane 0 is x
/// rounded to binary16, plane d the rounded residual left after d levels
/// (each residual is exact in binary32). One plane is the raw binary16
/// input (fp::Half(x, mode)), two are split_scalar's hi/lo, three are
/// split3_scalar's hi/mid/lo. Each plane pointer addresses input.size()
/// floats. This is the O(N^2) pass EGEMM-TC runs on CUDA cores before the
/// O(N^3) Tensor Core work; the packed engine's recipe kernel consumes the
/// planes directly. Batched over whole spans via
/// fp::f32_round_through_f16_span.
void split_planes_f32(std::span<const float> input,
                      std::span<float* const> planes, SplitMethod method);

/// split_planes_f32 into two planes: hi and lo.
void split_span_f32(std::span<const float> input, std::span<float> hi,
                    std::span<float> lo, SplitMethod method);

/// Worst-case representation error bound |x - (hi + lo)| for |x| <= scale:
/// 2^-22 * scale for round-split, 2^-21 * scale for truncate-split.
double split_error_bound(SplitMethod method, double scale) noexcept;

/// split_error_bound with the binary16 subnormal floor: when the residual
/// lands below the binary16 normal range (|x| < 2^-14, or any |x| whose
/// residual does), the loss is bounded by the subnormal quantum 2^-24
/// rather than by a fraction of |x|. The a-priori error model
/// (verify/error_model) uses this form so its bounds stay sound on
/// denormal-heavy fuzz inputs.
double split_residual_bound(SplitMethod method, double scale) noexcept;

/// Worst-case magnitude of the lo plane for |x| <= scale (again with the
/// subnormal floor): bounds the split-product terms an emulation scheme
/// drops (Markidis' Alo x Blo) and the lo-plane contribution to the
/// accumulated magnitude in the a-priori error model.
double split_lo_plane_bound(SplitMethod method, double scale) noexcept;

// -- three-way split (extension) ---------------------------------------------
// Splitting into three binary16 planes captures 33 candidate significand
// bits -- more than binary32's 24 -- so the decomposition of a normal
// binary32 value in the binary16 exponent range is *exact*:
//   x == hi + mid + lo  (in exact arithmetic).
// Emulation on top of it (9 Tensor Core products) is limited only by the
// binary32 accumulation, the natural "more precision" extension of Alg. 1
// that §3.1's generalized workflow anticipates.

struct SplitThirds {
  fp::Half hi;
  fp::Half mid;
  fp::Half lo;
};

/// Splits one binary32 value into three binary16 values, rounding every
/// level with `method`. With round-split the decomposition is exact for
/// |x| in [2^-2, 65504) and for any value whose residuals stay in the
/// binary16 range; tiny residuals may round. Truncate-split keeps each
/// plane one-signed (the Ozaki-style word slices) at the cost of one
/// effective bit per level.
SplitThirds split3_scalar(float x,
                          SplitMethod method = SplitMethod::kRoundSplit) noexcept;

/// Recombines; exact in binary64.
double combine3_scalar(SplitThirds thirds) noexcept;

/// split_planes_f32 into three planes: hi, mid and lo.
void split3_span_f32(std::span<const float> input, std::span<float> hi,
                     std::span<float> mid, std::span<float> lo,
                     SplitMethod method = SplitMethod::kRoundSplit);

/// split_residual_bound generalized to a `planes`-deep split stack: the
/// worst-case |x - sum(planes)| for |x| <= scale, with the binary16
/// subnormal floor. One plane is a single binary16 rounding: 2^-11
/// (round) / 2^-10 (truncate) relative, floored at half / one subnormal
/// quantum. Two planes are split_residual_bound; three tighten the
/// relative part to 2^-33 (round) / 2^-31 (truncate).
double split_residual_bound_planes(SplitMethod method, int planes,
                                   double scale) noexcept;

/// Worst-case magnitude of the plane at split depth `depth` (1 = first
/// residual plane, 2 = second) for |x| <= scale, with the subnormal floor.
/// depth 1 is exactly split_lo_plane_bound; each extra depth is one more
/// per-level factor down. The hi plane (depth 0) is hi_plane_bound.
double split_plane_bound(SplitMethod method, int depth, double scale) noexcept;

/// Worst-case magnitude of the hi plane (depth 0) for |x| <= scale, for
/// either split method: round-to-nearest can push the plane half a
/// binary16 ulp above x (padded to 2^-10 relative), plus the subnormal
/// half-quantum: scale * (1 + 2^-10) + 2^-25.
double hi_plane_bound(double scale) noexcept;

}  // namespace egemm::core
