// Scalar (portable C++) kernel tier: the reference operation sequence
// every SIMD variant is pinned against, bit for bit. The MMA loop is the
// seed packed kernel from tcsim/tensor_core.cpp, templated on A's layout
// (row-major for the block kernel, k-major for the recipe); the
// round-trip converter runs the shared integer cores one element at a
// time. The compiler's own auto-vectorization of these loops is welcome --
// it cannot change results because -ffp-contract=off pins the operation
// sequence.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"
#include "simd/half_convert_core.hpp"
#include "simd/kernels_common.hpp"

namespace egemm::simd {

namespace {

template <typename AStride>
void mma_block_packed_scalar(float* acc, const float* a, AStride as,
                             const float* b, int k) {
  // Two A rows per pass share each streamed B row; per output element the
  // operation sequence is exactly pair_sum_accumulate (one rounded p0 + p1
  // per k pair, chained onto the accumulator), with the j loop as the
  // vector lane dimension. -ffp-contract=off (top-level CMakeLists) keeps
  // the compiler from fusing the products differently per path.
  static_assert(kMmaTile % 2 == 0);
  for (int i = 0; i < kMmaTile; i += 2) {
    const float* arow0 = a + static_cast<std::size_t>(i) * as.row;
    const float* arow1 = arow0 + as.row;
    float* acc0 = acc + static_cast<std::size_t>(i) * kMmaTile;
    float* acc1 = acc0 + kMmaTile;
    int kk = 0;
    for (; kk + 1 < k; kk += 2) {
      const std::size_t at = static_cast<std::size_t>(kk) * as.k;
      const float a00 = arow0[at];
      const float a01 = arow0[at + as.k];
      const float a10 = arow1[at];
      const float a11 = arow1[at + as.k];
      const float* b0 = b + static_cast<std::size_t>(kk) * kMmaTile;
      const float* b1 = b0 + kMmaTile;
      for (int j = 0; j < kMmaTile; ++j) {
        acc0[j] += a00 * b0[j] + a01 * b1[j];
        acc1[j] += a10 * b0[j] + a11 * b1[j];
      }
    }
    if (kk < k) {
      const std::size_t at = static_cast<std::size_t>(kk) * as.k;
      const float a00 = arow0[at];
      const float a10 = arow1[at];
      const float* b0 = b + static_cast<std::size_t>(kk) * kMmaTile;
      for (int j = 0; j < kMmaTile; ++j) {
        acc0[j] += a00 * b0[j];
        acc1[j] += a10 * b0[j];
      }
    }
  }
}

void mma_block_packed_entry(float* acc, const float* a, std::size_t lda,
                            const float* b, int k) {
  EGEMM_COUNTER_ADD("tcsim.isa.mma_block.scalar", 1);
  mma_block_packed_scalar(acc, a, detail::RowMajorA{lda}, b, k);
}

void mma_tile_recipe_scalar(float* acc, const float* const* a_blocks,
                            const float* const* b_blocks, int ncombos, int k,
                            int k_slab, bool fused) {
  EGEMM_COUNTER_ADD("tcsim.isa.mma_tile.scalar", 1);
  detail::check_recipe_args(ncombos, k, k_slab);
  detail::for_each_recipe_slab(
      ncombos, k, k_slab, fused, [&](int c, int k0, int kt) {
        const std::size_t at = static_cast<std::size_t>(k0) * kMmaTile;
        mma_block_packed_scalar(acc, a_blocks[c] + at, detail::KMajorA{},
                                b_blocks[c] + at, kt);
      });
}

void f32_round_through_f16_scalar(const float* in, float* out, std::size_t n,
                                  bool nearest) {
  EGEMM_COUNTER_ADD("tcsim.isa.convert.scalar", 1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = detail::f16_bits_to_f32_one(detail::f32_bits_to_f16_bits(
        std::bit_cast<std::uint32_t>(in[i]), nearest));
  }
}

constexpr KernelTable kScalarTable = {
    IsaLevel::kScalar,        "scalar",
    mma_block_packed_entry,   mma_tile_recipe_scalar,
    f32_round_through_f16_scalar,
};

}  // namespace

const KernelTable* scalar_kernel_table() noexcept { return &kScalarTable; }

}  // namespace egemm::simd
