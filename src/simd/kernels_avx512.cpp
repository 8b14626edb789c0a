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

#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"
#include "simd/kernels_common.hpp"

namespace egemm::simd {

namespace {

// -- MMA ---------------------------------------------------------------------

/// Accumulates one k-slab for all 16 A rows onto the register-resident
/// accumulator tile (one zmm per row). The row loop must stay fully
/// unrolled so `accv` never spills. With the packs' k-major A (KMajorA)
/// the 16 broadcasts of each k read one 64-byte line at fixed offsets.
template <typename AStride>
inline void slab_rows16(__m512 accv[kMmaTile], const float* a, AStride as,
                        const float* b, int kt) {
  int kk = 0;
  for (; kk + 1 < kt; kk += 2) {
    const float* brow = b + static_cast<std::size_t>(kk) * kMmaTile;
    const float* acol = a + static_cast<std::size_t>(kk) * as.k;
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + kMmaTile);
    __builtin_prefetch(brow + 8 * kMmaTile);
#pragma GCC unroll 16
    for (int r = 0; r < kMmaTile; ++r) {
      const float* arow = acol + static_cast<std::size_t>(r) * as.row;
      __m512 t = _mm512_mul_ps(_mm512_set1_ps(arow[0]), b0);
      t = _mm512_fmadd_ps(_mm512_set1_ps(arow[as.k]), b1,
                          t);  // round(p0 + p1), exactly
      accv[r] = _mm512_add_ps(accv[r], t);
    }
  }
  if (kk < kt) {
    const __m512 b0 =
        _mm512_loadu_ps(b + static_cast<std::size_t>(kk) * kMmaTile);
    const float* acol = a + static_cast<std::size_t>(kk) * as.k;
#pragma GCC unroll 16
    for (int r = 0; r < kMmaTile; ++r) {
      const float* arow = acol + static_cast<std::size_t>(r) * as.row;
      accv[r] = _mm512_add_ps(accv[r], _mm512_mul_ps(_mm512_set1_ps(arow[0]),
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
  slab_rows16(accv, a, detail::RowMajorA{lda}, b, k);
  store_acc(acc, accv);
}

void mma_tile_recipe_avx512(float* acc, const float* const* a_blocks,
                            const float* const* b_blocks, int ncombos, int k,
                            int k_slab, bool fused) {
  EGEMM_COUNTER_ADD("tcsim.isa.mma_tile.avx512", 1);
  detail::check_recipe_args(ncombos, k, k_slab);
  __m512 accv[kMmaTile];
  load_acc(acc, accv);
  detail::for_each_recipe_slab(
      ncombos, k, k_slab, fused, [&](int c, int k0, int kt) {
        const std::size_t at = static_cast<std::size_t>(k0) * kMmaTile;
        slab_rows16(accv, a_blocks[c] + at, detail::KMajorA{},
                    b_blocks[c] + at, kt);
      });
  store_acc(acc, accv);
}

// -- converters --------------------------------------------------------------

/// Hardware binary16 round trip (vcvtps2ph + vcvtph2ps, the explicit
/// immediate overriding MXCSR.RC), then one blend that writes the scalar
/// core's canonical quiet NaN, sign(x) | 0x7fc00000, over every NaN lane;
/// vcvtps2ph keeps the payload's top bits instead. Bit-identical to
/// f16_bits_to_f32_one(f32_bits_to_f16_bits(x)) for all 2^32 inputs in
/// both modes (DESIGN.md §15). The conversion is spelled as the maskz
/// form with an all-ones mask -- the same instruction -- because GCC's
/// unmasked _mm512_cvtps_ph macro, used in unoptimized builds, passes its
/// mask as int -1, which -Wsign-conversion rejects.
template <int kRounding>
inline __m512 f32x16_round_through_f16(__m512 x) {
  const __m512 back = _mm512_cvtph_ps(_mm512_maskz_cvtps_ph(
      static_cast<__mmask16>(0xffff), x, kRounding | _MM_FROUND_NO_EXC));
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
