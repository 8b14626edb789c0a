#include "core/split.hpp"

#include <algorithm>

#include "fp/half_batch.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace egemm::core {

namespace {

constexpr std::size_t kChunk = 512;  // staging rows live in L1

/// One bookkeeping stop per split call in the observability registry
/// (elements, L1-chunk count, and the bytes the pass moves -- binary32 in,
/// `planes` binary32-stored planes out).
inline void count_split(std::size_t elements, std::size_t planes) noexcept {
  // Both are unused with observability compiled out.
  static_cast<void>(elements);
  static_cast<void>(planes);
  EGEMM_COUNTER_ADD("split.elements", elements);
  EGEMM_COUNTER_ADD("split.chunks", (elements + kChunk - 1) / kChunk);
  EGEMM_COUNTER_ADD("split.bytes",
                    elements * (1 + planes) * sizeof(float));
  EGEMM_COUNTER_ADD("split.calls", 1);
}

inline fp::Rounding split_rounding(SplitMethod method) noexcept {
  return method == SplitMethod::kRoundSplit ? fp::Rounding::kNearestEven
                                            : fp::Rounding::kTowardZero;
}

}  // namespace

const char* split_method_name(SplitMethod method) noexcept {
  switch (method) {
    case SplitMethod::kRoundSplit:
      return "round-split";
    case SplitMethod::kTruncateSplit:
      return "truncate-split";
  }
  return "?";
}

SplitHalves split_scalar(float x, SplitMethod method) noexcept {
  const fp::Rounding mode = split_rounding(method);
  const fp::Half hi(x, mode);
  // Exact in binary32: hi is within one binary16 ulp of x, so Sterbenz-type
  // cancellation applies (both operands share the leading bits).
  const float residual = x - hi.to_float();
  const fp::Half lo(residual, mode);
  return {hi, lo};
}

double combine_scalar(SplitHalves halves) noexcept {
  return halves.hi.to_double() + halves.lo.to_double();
}

void split_planes_f32(std::span<const float> input,
                      std::span<float* const> planes, SplitMethod method) {
  EGEMM_EXPECTS(!planes.empty() && planes.size() <= kMaxSplitPlanes);
  count_split(input.size(), planes.size());
  const fp::Rounding mode = split_rounding(method);
  float residual[kChunk];
  for (std::size_t base = 0; base < input.size(); base += kChunk) {
    const std::size_t len = std::min(kChunk, input.size() - base);
    const float* level = input.data() + base;  // x, then each residual
    for (std::size_t d = 0;; ++d) {
      float* const plane = planes[d] + base;
      fp::f32_round_through_f16_span({level, len}, {plane, len}, mode);
      if (d + 1 == planes.size()) break;
      for (std::size_t i = 0; i < len; ++i) {
        residual[i] = level[i] - plane[i];  // exact in binary32
      }
      level = residual;
    }
  }
}

void split_span_f32(std::span<const float> input, std::span<float> hi,
                    std::span<float> lo, SplitMethod method) {
  EGEMM_EXPECTS(input.size() == hi.size() && input.size() == lo.size());
  float* const planes[] = {hi.data(), lo.data()};
  split_planes_f32(input, planes, method);
}

SplitThirds split3_scalar(float x, SplitMethod method) noexcept {
  const fp::Rounding mode = split_rounding(method);
  const fp::Half hi(x, mode);
  const float r1 = x - hi.to_float();  // exact in binary32
  const fp::Half mid(r1, mode);
  const float r2 = r1 - mid.to_float();  // exact in binary32
  const fp::Half lo(r2, mode);
  return {hi, mid, lo};
}

double combine3_scalar(SplitThirds thirds) noexcept {
  return thirds.hi.to_double() + thirds.mid.to_double() +
         thirds.lo.to_double();
}

void split3_span_f32(std::span<const float> input, std::span<float> hi,
                     std::span<float> mid, std::span<float> lo,
                     SplitMethod method) {
  EGEMM_EXPECTS(input.size() == hi.size() && input.size() == mid.size() &&
                input.size() == lo.size());
  float* const planes[] = {hi.data(), mid.data(), lo.data()};
  split_planes_f32(input, planes, method);
}

double split_error_bound(SplitMethod method, double scale) noexcept {
  // x_hi captures 11 significand bits of x; the residual magnitude is below
  // 2^-11 |x| (round) or 2^-10 |x| (truncate), and rounding the residual to
  // 11 bits loses at most an additional factor of 2^-11 (round) / 2^-10
  // with truncation keeping the same sign.
  switch (method) {
    case SplitMethod::kRoundSplit:
      return scale * 0x1.0p-22;
    case SplitMethod::kTruncateSplit:
      return scale * 0x1.0p-21;
  }
  return 0.0;
}

double split_residual_bound(SplitMethod method, double scale) noexcept {
  // Below the binary16 normal range rounding quantizes on the fixed
  // subnormal grid (quantum 2^-24), so the scale-relative bound no longer
  // applies; the loss per rounding is at most half a quantum (round) or a
  // full quantum (truncate), and the lo rounding cannot make it worse than
  // one hi-stage quantum.
  switch (method) {
    case SplitMethod::kRoundSplit:
      return std::max(scale * 0x1.0p-22, 0x1.0p-25);
    case SplitMethod::kTruncateSplit:
      return std::max(scale * 0x1.0p-21, 0x1.0p-24);
  }
  return 0.0;
}

double split_residual_bound_planes(SplitMethod method, int planes,
                                   double scale) noexcept {
  if (planes <= 1) {
    // A single binary16 rounding: half a binary16 ulp (2^-11 relative) or
    // a full one (2^-10) when truncating, with the subnormal floor.
    return method == SplitMethod::kRoundSplit
               ? std::max(scale * 0x1.0p-11, 0x1.0p-25)
               : std::max(scale * 0x1.0p-10, 0x1.0p-24);
  }
  if (planes == 2) return split_residual_bound(method, scale);
  // Binade argument for the three-level stack, |x| in [2^e, 2^(e+1)):
  //  * round: |r1| <= half ulp16(x) <= 2^(e-11), so |r2| <= half
  //    ulp16(r1) <= 2^(e-22) and the final residual |r3| <= half
  //    ulp16(r2) <= 2^(e-33) <= 2^-33 |x|. Below the binary16 normal
  //    range the last rounding loses at most half a subnormal quantum.
  //  * truncate: r1 < ulp16(x) <= 2^(e-10), r2 < ulp16(r1) <= 2^(e-21),
  //    r3 < ulp16(r2) <= 2^(e-32) <= 2^-32 |x|; stated as 2^-31 for a 2x
  //    margin over the statically derived constant (the EG5xx pass
  //    derives exactly 2^-32), with the full-quantum subnormal floor.
  switch (method) {
    case SplitMethod::kRoundSplit:
      return std::max(scale * 0x1.0p-33, 0x1.0p-25);
    case SplitMethod::kTruncateSplit:
      return std::max(scale * 0x1.0p-31, 0x1.0p-24);
  }
  return 0.0;
}

double split_plane_bound(SplitMethod method, int depth, double scale) noexcept {
  if (depth <= 1) return split_lo_plane_bound(method, scale);
  // Each residual level is one per-level factor down: 2^-11 (1 + 2^-11)
  // padded to 0x1.01p-11 for round-split (the RN16 overshoot compounds),
  // a full binary16 ulp 2^-10 for truncate-split. The depth-d plane is
  // the rounding of the depth-d residual, so its magnitude is at most
  // scale * factor^d -- with the subnormal-quantum floor once the
  // residual leaves the binary16 normal range.
  const double level = method == SplitMethod::kRoundSplit ? 0x1.01p-11
                                                          : 0x1.0p-10;
  double rel = level;
  for (int d = 1; d < depth; ++d) rel *= level;
  return std::max(scale * rel, 0x1.0p-24);
}

double hi_plane_bound(double scale) noexcept {
  return scale * (1.0 + 0x1.0p-10) + 0x1.0p-25;
}

double split_lo_plane_bound(SplitMethod method, double scale) noexcept {
  // Round-split: |x - hi| <= 2^-11 |x| (half a binary16 ulp), and rounding
  // that residual to binary16 can push lo half an ulp of the residual
  // higher -- the 1 + 2^-11 factor, padded to 0x1.01p-11. Truncate-split:
  // the residual reaches a full binary16 ulp, 2^-10 |x|, and truncating can
  // only shrink it. Both floors are the binary16 subnormal quantum.
  switch (method) {
    case SplitMethod::kRoundSplit:
      return std::max(scale * 0x1.01p-11, 0x1.0p-24);
    case SplitMethod::kTruncateSplit:
      return std::max(scale * 0x1.0p-10, 0x1.0p-24);
  }
  return 0.0;
}

}  // namespace egemm::core
