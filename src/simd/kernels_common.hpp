#pragma once
// Internals shared by the per-ISA kernel translation units. The recipe
// iteration lives here once so the scalar, AVX2 and AVX-512 variants
// cannot drift in slab/combo order -- that order is part of the bit-exact
// operation sequence (dispatch.hpp documents the contract).

#include <cstddef>

#include "simd/dispatch.hpp"
#include "util/assert.hpp"

namespace egemm::simd::detail {

/// How an MMA kernel addresses its A block: element (r, kk) sits at
/// a[r * row + kk * k]. mma_block_packed reads a row-major block with a
/// runtime leading dimension; mma_tile_recipe reads the packs' k-major
/// blocks, whose strides are compile-time constants, so every A read in
/// the recipe is a fixed offset from one pointer that steps a 64-byte
/// line per k. Each tier keeps one slab body templated on this layout.
struct RowMajorA {
  std::size_t row;  ///< the leading dimension
  static constexpr std::size_t k = 1;
};
struct KMajorA {
  static constexpr std::size_t row = 1;
  static constexpr std::size_t k = kMmaTile;
};

/// Validates an mma_tile_recipe call. An even slab keeps pair boundaries
/// on even k offsets (so the !fused order stays bit-identical for every
/// slab choice); a slab covering all of k trivially does too.
inline void check_recipe_args(int ncombos, int k, int k_slab) noexcept {
  EGEMM_EXPECTS(ncombos >= 1);
  EGEMM_EXPECTS(k >= 1 && k_slab >= 1);
  EGEMM_EXPECTS(k_slab % 2 == 0 || k_slab >= k);
}

/// The one recipe loop: fused interleaves combos inside each k-slab
/// (Alg. 1), !fused runs each combo's full k extent before the next.
/// `slab(c, k0, kt)` accumulates combo c's [k0, k0 + kt) slab.
template <typename SlabFn>
inline void for_each_recipe_slab(int ncombos, int k, int k_slab, bool fused,
                                 SlabFn&& slab) {
  if (fused) {
    for (int k0 = 0; k0 < k; k0 += k_slab) {
      const int kt = k - k0 < k_slab ? k - k0 : k_slab;
      for (int c = 0; c < ncombos; ++c) slab(c, k0, kt);
    }
  } else {
    for (int c = 0; c < ncombos; ++c) {
      for (int k0 = 0; k0 < k; k0 += k_slab) {
        const int kt = k - k0 < k_slab ? k - k0 : k_slab;
        slab(c, k0, kt);
      }
    }
  }
}

}  // namespace egemm::simd::detail
