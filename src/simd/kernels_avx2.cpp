// AVX2 + FMA3 + F16C kernel tier. Compiled with -mavx2 -mfma -mf16c
// (per-file flags in src/CMakeLists.txt); when the toolchain cannot
// target them this TU degrades to a null table and dispatch falls back to
// scalar.
//
// Bit-exactness argument (DESIGN.md §15):
//  * MMA: the j (column) loop is the vector lane dimension, so lanes are
//    independent output elements and vectorizing over j commutes with the
//    per-element rounding sequence. Within a lane the sequence is the
//    scalar kernel's: p0 = a0*b0[j] (exact -- both operands are
//    half-valued, 11x11 significand bits fit binary32), then ONE rounding
//    for the pair sum, then one for the accumulate. The pair sum runs as
//    fmadd(a1, b1[j], p0) = round(p0 + a1*b1[j]); because the product
//    a1*b1[j] is exact, this equals round(p0 + p1) -- the FMA is used only
//    where it is provably bit-identical, never to fuse the pair-sum adds
//    themselves.
//  * Converter: the binary16 round trip the split runs is the hardware
//    conversion pair plus a NaN blend, proven equal to the integer cores
//    in half_convert_core.hpp on every input; only the scalar tail runs
//    those cores directly.

#include "simd/dispatch.hpp"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"
#include "simd/half_convert_core.hpp"
#include "simd/kernels_common.hpp"

namespace egemm::simd {

namespace {

// -- MMA ---------------------------------------------------------------------

/// Accumulates one k-slab for four A rows onto eight ymm accumulators
/// (rows r hold lanes [0,8) in acc_lo[r], [8,16) in acc_hi[r]). Exactly
/// fills the 16 ymm registers: 8 accumulators + 4 B row halves + broadcast
/// and pair-sum temporaries. `a` points at the group's first row; `as`
/// gives its row and k strides.
template <typename AStride>
inline void slab_rows4(__m256 acc_lo[4], __m256 acc_hi[4], const float* a,
                       AStride as, const float* b, int kt) {
  int kk = 0;
  for (; kk + 1 < kt; kk += 2) {
    const float* brow = b + static_cast<std::size_t>(kk) * kMmaTile;
    const float* acol = a + static_cast<std::size_t>(kk) * as.k;
    const __m256 b0_lo = _mm256_loadu_ps(brow);
    const __m256 b0_hi = _mm256_loadu_ps(brow + 8);
    const __m256 b1_lo = _mm256_loadu_ps(brow + kMmaTile);
    const __m256 b1_hi = _mm256_loadu_ps(brow + kMmaTile + 8);
    // Stream the next B k-pair into L1 while this one computes (harmless
    // past the end of the block: prefetches never fault).
    __builtin_prefetch(brow + 4 * kMmaTile);
    for (int r = 0; r < 4; ++r) {
      const float* arow = acol + static_cast<std::size_t>(r) * as.row;
      const __m256 a0 = _mm256_broadcast_ss(arow);
      const __m256 a1 = _mm256_broadcast_ss(arow + as.k);
      __m256 t_lo = _mm256_mul_ps(a0, b0_lo);
      __m256 t_hi = _mm256_mul_ps(a0, b0_hi);
      t_lo = _mm256_fmadd_ps(a1, b1_lo, t_lo);  // round(p0 + p1), exactly
      t_hi = _mm256_fmadd_ps(a1, b1_hi, t_hi);
      acc_lo[r] = _mm256_add_ps(acc_lo[r], t_lo);
      acc_hi[r] = _mm256_add_ps(acc_hi[r], t_hi);
    }
  }
  if (kk < kt) {  // odd slab tail: the lone product accumulates directly
    const float* brow = b + static_cast<std::size_t>(kk) * kMmaTile;
    const float* acol = a + static_cast<std::size_t>(kk) * as.k;
    const __m256 b0_lo = _mm256_loadu_ps(brow);
    const __m256 b0_hi = _mm256_loadu_ps(brow + 8);
    for (int r = 0; r < 4; ++r) {
      const __m256 a0 =
          _mm256_broadcast_ss(acol + static_cast<std::size_t>(r) * as.row);
      acc_lo[r] = _mm256_add_ps(acc_lo[r], _mm256_mul_ps(a0, b0_lo));
      acc_hi[r] = _mm256_add_ps(acc_hi[r], _mm256_mul_ps(a0, b0_hi));
    }
  }
}

inline void load_acc_rows4(const float* acc, int i0, __m256 acc_lo[4],
                           __m256 acc_hi[4]) {
  for (int r = 0; r < 4; ++r) {
    const float* row = acc + static_cast<std::size_t>(i0 + r) * kMmaTile;
    acc_lo[r] = _mm256_loadu_ps(row);
    acc_hi[r] = _mm256_loadu_ps(row + 8);
  }
}

inline void store_acc_rows4(float* acc, int i0, const __m256 acc_lo[4],
                            const __m256 acc_hi[4]) {
  for (int r = 0; r < 4; ++r) {
    float* row = acc + static_cast<std::size_t>(i0 + r) * kMmaTile;
    _mm256_storeu_ps(row, acc_lo[r]);
    _mm256_storeu_ps(row + 8, acc_hi[r]);
  }
}

void mma_block_packed_avx2(float* acc, const float* a, std::size_t lda,
                           const float* b, int k) {
  EGEMM_COUNTER_ADD("tcsim.isa.mma_block.avx2", 1);
  static_assert(kMmaTile % 4 == 0);
  for (int i0 = 0; i0 < kMmaTile; i0 += 4) {
    __m256 acc_lo[4];
    __m256 acc_hi[4];
    load_acc_rows4(acc, i0, acc_lo, acc_hi);
    slab_rows4(acc_lo, acc_hi, a + static_cast<std::size_t>(i0) * lda,
               detail::RowMajorA{lda}, b, k);
    store_acc_rows4(acc, i0, acc_lo, acc_hi);
  }
}

void mma_tile_recipe_avx2(float* acc, const float* const* a_blocks,
                          const float* const* b_blocks, int ncombos, int k,
                          int k_slab, bool fused) {
  EGEMM_COUNTER_ADD("tcsim.isa.mma_tile.avx2", 1);
  detail::check_recipe_args(ncombos, k, k_slab);
  // Row-group outer loop: each group of four rows keeps its accumulators
  // in registers across the whole combo x k-slab recipe (rows are
  // independent chains, so regrouping them is semantics-free).
  for (int i0 = 0; i0 < kMmaTile; i0 += 4) {
    __m256 acc_lo[4];
    __m256 acc_hi[4];
    load_acc_rows4(acc, i0, acc_lo, acc_hi);
    detail::for_each_recipe_slab(
        ncombos, k, k_slab, fused, [&](int c, int k0, int kt) {
          const std::size_t at = static_cast<std::size_t>(k0) * kMmaTile;
          slab_rows4(acc_lo, acc_hi,
                     a_blocks[c] + at + static_cast<std::size_t>(i0),
                     detail::KMajorA{}, b_blocks[c] + at, kt);
        });
    store_acc_rows4(acc, i0, acc_lo, acc_hi);
  }
}

// -- converters --------------------------------------------------------------

/// Hardware binary16 round trip (vcvtps2ph + vcvtph2ps, the explicit
/// immediate overriding MXCSR.RC), then one blend that writes the scalar
/// core's canonical quiet NaN, sign(x) | 0x7fc00000, over every NaN lane;
/// vcvtps2ph keeps the payload's top bits instead. Bit-identical to
/// f16_bits_to_f32_one(f32_bits_to_f16_bits(x)) for all 2^32 inputs in
/// both modes (DESIGN.md §15).
template <int kRounding>
inline __m256 f32x8_round_through_f16(__m256 x) {
  const __m256 back =
      _mm256_cvtph_ps(_mm256_cvtps_ph(x, kRounding | _MM_FROUND_NO_EXC));
  const __m256i bits = _mm256_castps_si256(x);
  const __m256i is_nan = _mm256_cmpgt_epi32(
      _mm256_and_si256(bits, _mm256_set1_epi32(0x7fffffff)),
      _mm256_set1_epi32(0x7f800000));
  const __m256i nan = _mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi32(INT32_MIN)),
      _mm256_set1_epi32(0x7fc00000));
  return _mm256_blendv_ps(back, _mm256_castsi256_ps(nan),
                          _mm256_castsi256_ps(is_nan));
}

template <int kRounding>
void round_through_f16_span(const float* in, float* out, std::size_t n) {
  constexpr bool kNearest = kRounding == _MM_FROUND_TO_NEAREST_INT;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     f32x8_round_through_f16<kRounding>(_mm256_loadu_ps(in + i)));
  }
  for (; i < n; ++i) {
    out[i] = detail::f16_bits_to_f32_one(detail::f32_bits_to_f16_bits(
        std::bit_cast<std::uint32_t>(in[i]), kNearest));
  }
}

void f32_round_through_f16_avx2(const float* in, float* out, std::size_t n,
                                bool nearest) {
  EGEMM_COUNTER_ADD("tcsim.isa.convert.avx2", 1);
  if (nearest) {
    round_through_f16_span<_MM_FROUND_TO_NEAREST_INT>(in, out, n);
  } else {
    round_through_f16_span<_MM_FROUND_TO_ZERO>(in, out, n);
  }
}

constexpr KernelTable kAvx2Table = {
    IsaLevel::kAvx2,        "avx2",
    mma_block_packed_avx2,  mma_tile_recipe_avx2,
    f32_round_through_f16_avx2,
};

}  // namespace

const KernelTable* avx2_kernel_table() noexcept { return &kAvx2Table; }

}  // namespace egemm::simd

#else  // !(__AVX2__ && __FMA__ && __F16C__)

namespace egemm::simd {

const KernelTable* avx2_kernel_table() noexcept { return nullptr; }

}  // namespace egemm::simd

#endif
