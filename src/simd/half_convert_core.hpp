#pragma once
// Scalar binary32 <-> binary16 conversion cores: the reference for the
// split's round-trip converter in every tier (the SIMD TUs need the same
// algorithm without a dependency on fp/). The 32-bit integer rounding
// mirrors fp's `f64_to_f16_bits` exactly (the binary32 -> binary64
// widening is exact, so the rounding decisions are the same; verified
// exhaustively over all 2^32 inputs in both modes). The scalar tier runs
// these two functions back to back; the AVX2/AVX-512 round trip is the
// hardware vcvtps2ph/vcvtph2ps pair plus a NaN blend, and
// tests/test_simd_dispatch.cpp pins it against this core over all 2^32
// inputs.

#include <bit>
#include <cstdint>

namespace egemm::simd::detail {

/// 32-bit mirror of `f64_to_f16_bits` for binary32 inputs. Written with
/// value selects instead of early returns so the surrounding span loops
/// are if-convertible; all shifts stay within [1, 26].
inline std::uint16_t f32_bits_to_f16_bits(std::uint32_t bits,
                                          bool nearest) noexcept {
  const auto sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  const std::uint32_t abs = bits & 0x7fffffffu;
  if (abs >= 0x7f800000u) {  // NaN quiets, +-inf passes through (any mode)
    return static_cast<std::uint16_t>(sign |
                                      (abs > 0x7f800000u ? 0x7e00u : 0x7c00u));
  }
  const int exp32 = static_cast<int>(abs >> 23);
  if (exp32 == 0) return sign;  // binary32 subnormal: |x| < 2^-126 -> +-0
  const int half_biased = exp32 - 112;  // (exp32 - 127) + kExponentBias
  if (half_biased >= 31) {  // at or above the finite/infinity midpoint
    return static_cast<std::uint16_t>(sign | (nearest ? 0x7c00u : 0x7bffu));
  }
  const std::uint32_t sig = (abs & 0x7fffffu) | 0x800000u;
  int shift = 13;  // 23 significand bits down to 10 (normals)
  if (half_biased < 1) shift += 1 - half_biased;  // subnormal 2^-24 grid
  if (shift > 26) shift = 26;  // deeper shifts all round to zero anyway
  std::uint32_t rounded = sig >> shift;
  if (nearest) {
    const std::uint32_t rem = sig & ((1u << shift) - 1u);
    const std::uint32_t midpoint = 1u << (shift - 1);
    if (rem > midpoint || (rem == midpoint && (rounded & 1u))) ++rounded;
  }
  // A carry out of the significand bumps the exponent for free, including
  // the 65504 -> inf carry; subnormal carry to 0x400 is the minimum normal.
  const std::uint32_t magnitude =
      half_biased >= 1
          ? rounded + (static_cast<std::uint32_t>(half_biased - 1) << 10)
          : rounded;
  return static_cast<std::uint16_t>(sign | magnitude);
}

/// Branch-light mirror of `f16_bits_to_f32`: the subnormal branch uses an
/// exact integer->float conversion (man < 2^11, scale a power of two)
/// instead of the normalization loop, so all three cases are selects.
inline float f16_bits_to_f32_one(std::uint16_t h) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (static_cast<std::uint32_t>(h) >> 10) & 0x1fu;
  const std::uint32_t man = h & 0x3ffu;
  const std::uint32_t sub =
      std::bit_cast<std::uint32_t>(static_cast<float>(man) * 0x1p-24f);
  const std::uint32_t norm = ((exp + 112u) << 23) | (man << 13);
  const std::uint32_t infnan = 0x7f800000u | (man << 13);
  const std::uint32_t mag = exp == 0 ? sub : (exp == 31u ? infnan : norm);
  return std::bit_cast<float>(sign | mag);
}

}  // namespace egemm::simd::detail
