// AVX-512F kernel tier. Compiled with -mavx512f (per-file flags in
// src/CMakeLists.txt); degrades to a null table when the toolchain cannot
// target AVX-512. The bit-exactness argument is the AVX2 TU's, with one
// structural bonus: a packed tile row is exactly one zmm register, so the
// whole 16x16 accumulator lives in 16 of the 32 architectural zmm
// registers across the entire recipe -- zero accumulator memory traffic
// between the tile load and the final store.

#include "simd/dispatch.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

// GCC's AVX-512 intrinsic headers model "undefined" destination operands
// with a self-initialized local (`__m512i __Y = __Y`), which trips
// -Wmaybe-uninitialized when the intrinsics inline into our loops. The
// warning is about the header idiom, not this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <bit>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"
#include "simd/half_convert_core.hpp"
#include "simd/kernels_common.hpp"

namespace egemm::simd {

namespace {

// -- MMA ---------------------------------------------------------------------

/// Accumulates one k-slab for all 16 A rows onto the register-resident
/// accumulator tile (one zmm per row). The row loop must stay fully
/// unrolled so `accv` never spills.
inline void slab_rows16(__m512 accv[kMmaTile], const float* a,
                        std::size_t lda, const float* b, int kt) {
  int kk = 0;
  for (; kk + 1 < kt; kk += 2) {
    const float* brow = b + static_cast<std::size_t>(kk) * kMmaTile;
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + kMmaTile);
    __builtin_prefetch(brow + 8 * kMmaTile);
#pragma GCC unroll 16
    for (int r = 0; r < kMmaTile; ++r) {
      const float* arow = a + static_cast<std::size_t>(r) * lda;
      __m512 t = _mm512_mul_ps(_mm512_set1_ps(arow[kk]), b0);
      t = _mm512_fmadd_ps(_mm512_set1_ps(arow[kk + 1]), b1,
                          t);  // round(p0 + p1), exactly
      accv[r] = _mm512_add_ps(accv[r], t);
    }
  }
  if (kk < kt) {
    const __m512 b0 =
        _mm512_loadu_ps(b + static_cast<std::size_t>(kk) * kMmaTile);
#pragma GCC unroll 16
    for (int r = 0; r < kMmaTile; ++r) {
      const float* arow = a + static_cast<std::size_t>(r) * lda;
      accv[r] = _mm512_add_ps(accv[r], _mm512_mul_ps(_mm512_set1_ps(arow[kk]),
                                                     b0));
    }
  }
}

inline void load_acc(const float* acc, __m512 accv[kMmaTile]) {
#pragma GCC unroll 16
  for (int r = 0; r < kMmaTile; ++r) {
    accv[r] = _mm512_loadu_ps(acc + static_cast<std::size_t>(r) * kMmaTile);
  }
}

inline void store_acc(float* acc, const __m512 accv[kMmaTile]) {
#pragma GCC unroll 16
  for (int r = 0; r < kMmaTile; ++r) {
    _mm512_storeu_ps(acc + static_cast<std::size_t>(r) * kMmaTile, accv[r]);
  }
}

void mma_block_packed_avx512(float* acc, const float* a, std::size_t lda,
                             const float* b, int k) {
  EGEMM_COUNTER_ADD("tcsim.isa.mma_block.avx512", 1);
  __m512 accv[kMmaTile];
  load_acc(acc, accv);
  slab_rows16(accv, a, lda, b, k);
  store_acc(acc, accv);
}

void mma_tile_recipe_avx512(float* acc, const float* const* a_blocks,
                            const float* const* b_blocks, int ncombos,
                            std::size_t lda, int k, int k_slab, bool fused) {
  EGEMM_COUNTER_ADD("tcsim.isa.mma_tile.avx512", 1);
  detail::check_recipe_args(ncombos, k, k_slab);
  __m512 accv[kMmaTile];
  load_acc(acc, accv);
  detail::for_each_recipe_slab(
      ncombos, k, k_slab, fused, [&](int c, int k0, int kt) {
        slab_rows16(accv, a_blocks[c] + k0, lda,
                    b_blocks[c] + static_cast<std::size_t>(k0) * kMmaTile,
                    kt);
      });
  store_acc(acc, accv);
}

// -- converters --------------------------------------------------------------

/// Sixteen-lane transcription of detail::f32_bits_to_f16_bits; returns the
/// half bit patterns zero-extended in 32-bit lanes.
inline __m512i f32x16_to_f16_bits_u32(__m512i bits, bool nearest) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i sign =
      _mm512_and_si512(_mm512_srli_epi32(bits, 16), _mm512_set1_epi32(0x8000));
  const __m512i abs = _mm512_and_si512(bits, _mm512_set1_epi32(0x7fffffff));
  const __m512i exp32 = _mm512_srli_epi32(abs, 23);
  const __m512i half_biased = _mm512_sub_epi32(exp32, _mm512_set1_epi32(112));
  const __m512i sig =
      _mm512_or_si512(_mm512_and_si512(abs, _mm512_set1_epi32(0x7fffff)),
                      _mm512_set1_epi32(0x800000));
  __m512i shift = _mm512_add_epi32(
      _mm512_set1_epi32(13),
      _mm512_max_epi32(zero, _mm512_sub_epi32(one, half_biased)));
  shift = _mm512_min_epi32(shift, _mm512_set1_epi32(26));
  __m512i rounded = _mm512_srlv_epi32(sig, shift);
  if (nearest) {
    const __m512i rem = _mm512_and_si512(
        sig, _mm512_sub_epi32(_mm512_sllv_epi32(one, shift), one));
    const __m512i midpoint =
        _mm512_sllv_epi32(one, _mm512_sub_epi32(shift, one));
    const __mmask16 round_up =
        _mm512_cmpgt_epi32_mask(rem, midpoint) |
        (_mm512_cmpeq_epi32_mask(rem, midpoint) &
         _mm512_test_epi32_mask(rounded, one));
    rounded = _mm512_mask_add_epi32(rounded, round_up, rounded, one);
  }
  const __m512i rebased = _mm512_add_epi32(
      rounded, _mm512_slli_epi32(_mm512_sub_epi32(half_biased, one), 10));
  const __mmask16 is_normal = _mm512_cmpgt_epi32_mask(half_biased, zero);
  __m512i result = _mm512_or_si512(
      sign, _mm512_mask_mov_epi32(rounded, is_normal, rebased));
  const __mmask16 too_big =
      _mm512_cmpgt_epi32_mask(half_biased, _mm512_set1_epi32(30));
  result = _mm512_mask_mov_epi32(
      result, too_big,
      _mm512_or_si512(sign, _mm512_set1_epi32(nearest ? 0x7c00 : 0x7bff)));
  const __mmask16 is_zero = _mm512_cmpeq_epi32_mask(exp32, zero);
  result = _mm512_mask_mov_epi32(result, is_zero, sign);
  const __mmask16 is_nan_inf =
      _mm512_cmpgt_epi32_mask(abs, _mm512_set1_epi32(0x7f7fffff));
  const __mmask16 is_nan =
      _mm512_cmpgt_epi32_mask(abs, _mm512_set1_epi32(0x7f800000));
  const __m512i nan_inf_value = _mm512_or_si512(
      sign, _mm512_mask_mov_epi32(_mm512_set1_epi32(0x7c00), is_nan,
                                  _mm512_set1_epi32(0x7e00)));
  return _mm512_mask_mov_epi32(result, is_nan_inf, nan_inf_value);
}

/// Sixteen-lane transcription of detail::f16_bits_to_f32_one.
inline __m512 f16x16_bits_to_f32(__m512i h) {
  const __m512i sign =
      _mm512_slli_epi32(_mm512_and_si512(h, _mm512_set1_epi32(0x8000)), 16);
  const __m512i exp =
      _mm512_and_si512(_mm512_srli_epi32(h, 10), _mm512_set1_epi32(0x1f));
  const __m512i man = _mm512_and_si512(h, _mm512_set1_epi32(0x3ff));
  const __m512i sub = _mm512_castps_si512(_mm512_mul_ps(
      _mm512_cvtepi32_ps(man), _mm512_set1_ps(0x1p-24f)));
  const __m512i norm = _mm512_or_si512(
      _mm512_slli_epi32(_mm512_add_epi32(exp, _mm512_set1_epi32(112)), 23),
      _mm512_slli_epi32(man, 13));
  const __m512i infnan = _mm512_or_si512(_mm512_set1_epi32(0x7f800000),
                                         _mm512_slli_epi32(man, 13));
  __m512i mag = _mm512_mask_mov_epi32(
      norm, _mm512_cmpeq_epi32_mask(exp, _mm512_set1_epi32(31)), infnan);
  mag = _mm512_mask_mov_epi32(
      mag, _mm512_cmpeq_epi32_mask(exp, _mm512_setzero_si512()), sub);
  return _mm512_castsi512_ps(_mm512_or_si512(sign, mag));
}

void f32_to_f16_bits_avx512(const float* in, std::uint16_t* out,
                            std::size_t n, bool nearest) {
  EGEMM_COUNTER_ADD("tcsim.isa.convert.avx512", 1);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i half = f32x16_to_f16_bits_u32(
        _mm512_castps_si512(_mm512_loadu_ps(in + i)), nearest);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtepi32_epi16(half));  // lanes are <= 0xffff
  }
  for (; i < n; ++i) {
    out[i] = detail::f32_bits_to_f16_bits(std::bit_cast<std::uint32_t>(in[i]),
                                          nearest);
  }
}

void f16_bits_to_f32_avx512(const std::uint16_t* in, float* out,
                            std::size_t n) {
  EGEMM_COUNTER_ADD("tcsim.isa.convert.avx512", 1);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i h = _mm512_cvtepu16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i)));
    _mm512_storeu_ps(out + i, f16x16_bits_to_f32(h));
  }
  for (; i < n; ++i) out[i] = detail::f16_bits_to_f32_one(in[i]);
}

/// Hardware binary16 round trip (vcvtps2ph + vcvtph2ps, the explicit
/// immediate overriding MXCSR.RC), then one blend that writes the scalar
/// core's canonical quiet NaN, sign(x) | 0x7fc00000, over every NaN lane;
/// vcvtps2ph keeps the payload's top bits instead. Bit-identical to
/// f16_bits_to_f32_one(f32_bits_to_f16_bits(x)) for all 2^32 inputs in
/// both modes (DESIGN.md §15).
template <int kRounding>
inline __m512 f32x16_round_through_f16(__m512 x) {
  const __m512 back = _mm512_cvtph_ps(
      _mm512_cvtps_ph(x, kRounding | _MM_FROUND_NO_EXC));
  const __m512i bits = _mm512_castps_si512(x);
  const __mmask16 is_nan = _mm512_cmpgt_epi32_mask(
      _mm512_and_si512(bits, _mm512_set1_epi32(0x7fffffff)),
      _mm512_set1_epi32(0x7f800000));
  const __m512i nan = _mm512_or_si512(
      _mm512_and_si512(bits, _mm512_set1_epi32(INT32_MIN)),
      _mm512_set1_epi32(0x7fc00000));
  return _mm512_mask_mov_ps(back, is_nan, _mm512_castsi512_ps(nan));
}

template <int kRounding>
void round_through_f16_span(const float* in, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i,
                     f32x16_round_through_f16<kRounding>(_mm512_loadu_ps(in + i)));
  }
  if (i < n) {  // masked tail: the same instructions on the last lanes
    const __mmask16 tail = static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(
        out + i, tail,
        f32x16_round_through_f16<kRounding>(_mm512_maskz_loadu_ps(tail, in + i)));
  }
}

void f32_round_through_f16_avx512(const float* in, float* out, std::size_t n,
                                  bool nearest) {
  EGEMM_COUNTER_ADD("tcsim.isa.convert.avx512", 1);
  if (nearest) {
    round_through_f16_span<_MM_FROUND_TO_NEAREST_INT>(in, out, n);
  } else {
    round_through_f16_span<_MM_FROUND_TO_ZERO>(in, out, n);
  }
}

constexpr KernelTable kAvx512Table = {
    IsaLevel::kAvx512,        "avx512",
    mma_block_packed_avx512,  mma_tile_recipe_avx512,
    f32_to_f16_bits_avx512,   f16_bits_to_f32_avx512,
    f32_round_through_f16_avx512,
};

}  // namespace

const KernelTable* avx512_kernel_table() noexcept { return &kAvx512Table; }

}  // namespace egemm::simd

#else  // !__AVX512F__

namespace egemm::simd {

const KernelTable* avx512_kernel_table() noexcept { return nullptr; }

}  // namespace egemm::simd

#endif
