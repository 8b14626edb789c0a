#pragma once
// Bit-accurate functional model of the Tensor Core compute primitive
// D = A x B + C (§2.1) plus the probing primitives used by the
// generalized emulation-design workflow (§3.1, Fig. 2a / Fig. 3).
//
// Modeled operation precision (and what the profiling harness verifies):
//  * A, B entries are IEEE binary16;
//  * each product float(a)*float(b) is exact in binary32 (11-bit x 11-bit
//    significands fit in 24 bits);
//  * products are summed two at a time (adjacent pairs) and the pair sums
//    chain onto the running accumulator starting from C -- the two-element
//    inner step documented for Volta/Turing HMMA [12, 13].
//
// The within-pair reassociation is the only difference from the natural
// sequential CPU loop, which reproduces the paper's empirical observation:
// the Tensor Core result agrees with a sequential binary32 computation
// ("d_FLOAT") on the leading 21+ mantissa bits in the typical trial while
// not always being bit-identical (the artifact's example shows a 1-bit
// difference), and is far from the binary16-accumulated probe ("d_HALF").

#include <cstddef>
#include <span>

#include "fp/half.hpp"
#include "tcsim/fragment.hpp"

namespace egemm::tcsim {

namespace detail {

/// The ONE pair-sum accumulation core every Tensor-Core path shares:
/// exact binary16 products are summed two at a time (adjacent pairs) and
/// the pair sums chain onto the running accumulator starting from C -- the
/// two-element inner step documented for Volta/Turing HMMA [12, 13].
/// `product(i)` returns the i-th (exact) widened product. mma_sync,
/// mma_tile_f32, tc_dot and the packed block kernel all reduce to this
/// sequence per output element, so the semantics cannot drift between
/// paths (tests pin them bitwise against each other).
template <typename ProductAt>
inline float pair_sum_accumulate(std::size_t k, float c,
                                 ProductAt product) noexcept {
  float acc = c;
  std::size_t i = 0;
  for (; i + 1 < k; i += 2) {
    const float p0 = product(i);
    const float p1 = product(i + 1);
    acc += p0 + p1;
  }
  if (i < k) acc += product(i);
  return acc;
}

}  // namespace detail

/// wmma::mma_sync equivalent on 16x16x16 tiles: d = a x b + c.
void mma_sync(FragmentAcc& d, const FragmentA& a, const FragmentB& b,
              const FragmentAcc& c) noexcept;

/// Fast-path tile MMA on half-valued float arrays (the bulk GEMM path).
/// `a` is m x k row-major with leading dimension `lda` (similarly b, d);
/// every a/b entry must be exactly representable in binary16 -- callers get
/// this for free because the values come from a data split. Accumulates
/// into d (d += a x b) with the exact semantics described above.
void mma_tile_f32(float* d, std::size_t ldd, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, int m, int n,
                  int k) noexcept;

/// Dot product with Tensor-Core accumulation semantics (one output element
/// of the primitive); exposed for the profiling workflow and tests.
float tc_dot(std::span<const fp::Half> a, std::span<const fp::Half> b,
             float c) noexcept;

/// Contiguous fast-path variant of tc_dot over half-valued float arrays;
/// the bulk-GEMM inner loop. Same accumulation semantics as mma_sync.
float tc_dot_f32(const float* a, const float* b, int k, float c) noexcept;

/// Packed-tile MMA: the single-slab block kernel (DESIGN.md §10).
/// Accumulates a kTcM x kTcN tile: acc (row-major, leading dimension kTcN)
/// += Ablk x Bblk, where Ablk is kTcM ROW-MAJOR rows of pre-widened
/// half-valued floats with leading dimension `lda` and Bblk is `k`
/// contiguous rows of kTcN floats (a packed B-plane k-slab). The engine
/// itself runs mma_tile_recipe over the packs' k-major A blocks; this
/// entry keeps the row-major contract for callers holding plain tiles.
/// Each output element performs exactly the pair_sum_accumulate
/// sequence; the column index is the SIMD lane dimension, so the inner
/// loop vectorizes without reassociating anything.
/// Dispatches to the runtime-selected ISA variant (simd/dispatch.hpp,
/// DESIGN.md §15); every variant is pinned bit-identical to the scalar
/// sequence above.
void mma_block_packed(float* acc, const float* a, std::size_t lda,
                      const float* b, int k) noexcept;

/// Whole-tile packed recipe: runs the packed engine's full per-tile
/// combo x k-slab loop in one dispatched call so the SIMD variants can
/// keep the kTcM x kTcN accumulator tile in registers across the entire k
/// extent. `a_blocks[c]` / `b_blocks[c]` are the combo-c packed A-plane
/// and B-plane panel bases, both in the one k-major panel layout
/// gemm::PackedPlanes packs for either operand, whichever fill wrote it:
/// A element (r, kk) at a_blocks[c][kk * kTcM + r], B element (kk, j) at
/// b_blocks[c][kk * kTcN + j]. Semantics are exactly the loop
/// nest
///
///   fused:  for k0 step k_slab: for c: mma_block_packed(acc, A_c[:, k0:],
///           lda, b_blocks[c] + k0 * kTcN, kt)
///   !fused: the same with the c / k0 loops exchanged
///
/// with kt = min(k_slab, k - k0) and A_c the row-major copy of combo c's
/// block: only the addressing differs, never a value or an operation.
/// `k_slab` must be even or >= k: even slab boundaries keep the pair-sum
/// pairing on even k offsets, making the slab length a pure blocking
/// choice in the !fused order (any even value gives bit-identical
/// results). In the fused order the slab length is part of the emulation
/// recipe and callers pass the semantic value (16).
void mma_tile_recipe(float* acc, const float* const* a_blocks,
                     const float* const* b_blocks, int ncombos, int k,
                     int k_slab, bool fused) noexcept;

// -- Probing compute primitives (Fig. 2a) -----------------------------------
// Each computes the same dot product under a hypothesised intermediate
// precision; the profiling harness compares them bitwise against tc_dot.

/// Hypothesis 1: multiply and accumulate entirely in binary16 ("d_HALF").
float probe_dot_half(std::span<const fp::Half> a, std::span<const fp::Half> b,
                     float c) noexcept;

/// Hypothesis 2: operands widened to binary32, sequential binary32
/// accumulation ("d_FLOAT").
float probe_dot_float(std::span<const fp::Half> a, std::span<const fp::Half> b,
                      float c) noexcept;

/// CPU ground truth at binary64 (used to bound both hypotheses).
double probe_dot_double(std::span<const fp::Half> a,
                        std::span<const fp::Half> b, double c) noexcept;

/// A deliberately wrong specialized core (binary16 accumulation) used by
/// the failure-injection tests: the workflow must reject the binary32
/// hypothesis for it.
float broken_tc_dot(std::span<const fp::Half> a, std::span<const fp::Half> b,
                    float c) noexcept;

}  // namespace egemm::tcsim
