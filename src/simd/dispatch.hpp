#pragma once
// Kernel dispatch table for the SIMD microkernel layer (DESIGN.md §15).
//
// Each ISA tier provides one KernelTable with the same three entry points;
// `active_kernels()` returns the table for the resolved IsaLevel
// (isa.hpp). Every variant implements the *identical* operation sequence
// -- the pair-sum accumulation the Tensor Core model documents, and for
// the split's binary16 round trip either the scalar integer rounding or a
// hardware conversion proven equal to it on all 2^32 inputs -- so
// switching tables never changes a single result bit. That property is
// the acceptance gate for adding a variant; tests/test_simd_dispatch.cpp enforces it for every
// table this binary carries.
//
// The layer sits below fp/ and tcsim/ (it depends only on obs/), so both
// the converter front-end and the MMA kernels can route through it without
// a dependency cycle. It deals in raw pointers + element counts rather
// than spans and fp::Rounding: the typed front doors stay in
// fp/half_batch.hpp and tcsim/tensor_core.hpp.

#include <cstddef>
#include <cstdint>

#include "simd/isa.hpp"

namespace egemm::simd {

/// Extent of the packed MMA microtile on every axis. Mirrors
/// tcsim::kTcM/kTcN (static_asserted at the tcsim adapter) without
/// depending on tcsim headers.
inline constexpr int kMmaTile = 16;

/// One ISA tier's kernel set. All function pointers are always non-null.
struct KernelTable {
  IsaLevel level;
  const char* name;  ///< isa_name(level)

  /// Packed-tile MMA: acc (kMmaTile x kMmaTile row-major, contiguous) +=
  /// Ablk x Bblk. `a` is kMmaTile row-major rows of half-valued floats
  /// with leading dimension `lda`; `b` is `k` contiguous rows of kMmaTile
  /// floats. Per output element the operation sequence is exactly
  /// tcsim::detail::pair_sum_accumulate: one rounded p0 + p1 per k pair,
  /// chained onto the accumulator, with the column index as the vector
  /// lane dimension.
  void (*mma_block_packed)(float* acc, const float* a, std::size_t lda,
                           const float* b, int k);

  /// Whole-tile recipe kernel: runs the per-tile combo x k-slab loop of
  /// the packed engine with the accumulator tile held in registers across
  /// the entire k extent (the seed driver reloaded it from L1 once per
  /// 16-deep slab). `a_blocks` / `b_blocks` hold one packed A/B panel base
  /// pointer per combo, both in the one k-major panel layout
  /// gemm::PackedPlanes packs for either operand (its transposing and
  /// copying fills write the same floats): A element (r, kk) sits at
  /// a_blocks[c][kk * kMmaTile + r], B element (kk, j) at
  /// b_blocks[c][kk * kMmaTile + j], so each k of each operand is one
  /// contiguous 64-byte run. Semantics:
  ///
  ///   fused:  for k0 in [0, k) step k_slab: for c in combos: slab(c, k0)
  ///   !fused: for c in combos: for k0 in [0, k) step k_slab: slab(c, k0)
  ///
  /// where slab(c, k0) is mma_block_packed over A's columns and B's rows
  /// [k0, k0 + min(k_slab, k - k0)) -- the same values, the same operation
  /// sequence, only A's addressing differs. `k_slab` must be even (or
  /// >= k): even slab boundaries keep the pair-sum pairing aligned to even
  /// k offsets, which is what makes the slab length a pure blocking choice
  /// in the !fused order. In the fused order the slab length is part of
  /// the recipe (combos interleave per slab) -- the packed engine always
  /// passes its semantic 16 there.
  void (*mma_tile_recipe)(float* acc, const float* const* a_blocks,
                          const float* const* b_blocks, int ncombos, int k,
                          int k_slab, bool fused);

  /// Binary16 round trip: out[i] = detail::f16_bits_to_f32_one(
  /// detail::f32_bits_to_f16_bits(in[i], nearest)) (half_convert_core.hpp):
  /// round-to-nearest-even when `nearest`, round-toward-zero otherwise.
  void (*f32_round_through_f16)(const float* in, float* out, std::size_t n,
                                bool nearest);
};

/// Table for the resolved level (isa.hpp). One relaxed atomic load after
/// the first call.
const KernelTable& active_kernels() noexcept;

/// Table for a specific level, or nullptr when this binary was built
/// without that variant (non-x86 target, or a toolchain lacking the
/// -mavx2/-mavx512f flags). Returned tables for levels above what the
/// *machine* supports exist but must not be executed; see isa_available().
const KernelTable* kernels_for(IsaLevel level) noexcept;

/// Whether `level` is both compiled into this binary and executable on
/// this machine -- the set tests and benchmarks iterate over.
bool isa_available(IsaLevel level) noexcept;

/// Hooks for dispatch.cpp; each kernels_*.cpp TU exports its table (or
/// nullptr when the variant is compiled out).
const KernelTable* scalar_kernel_table() noexcept;
const KernelTable* avx2_kernel_table() noexcept;
const KernelTable* avx512_kernel_table() noexcept;

}  // namespace egemm::simd
