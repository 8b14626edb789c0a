#pragma once
// Tile packing for the packed execution engine (DESIGN.md §10).
//
// Per GEMM call, each input matrix is split into binary16 planes exactly
// once (the O(N^2) pass), and each plane is then copied ONCE into a
// tile-blocked contiguous layout that the recipe kernel
// (tcsim::mma_tile_recipe) streams at unit stride:
//
//   A plane (m x k)  ->  row blocks: block rb holds rows
//       [rb*16, rb*16+16) as 16 contiguous rows of k floats (rows past m
//       are zero). A k-slab of the block starts at column offset k0 with
//       leading dimension k.
//   B plane (k x n)  ->  column blocks: block cb holds columns
//       [cb*16, cb*16+16) as k contiguous rows of 16 floats (columns past
//       n are zero). A k-slab starts at row offset k0*16 and is fully
//       contiguous -- this is what turns the seed path's stride-n column
//       walk into the kernel's unit-stride vector loads.
//
// A pack is sized once per call (resize) and then filled by row ranges
// (pack_rows), so disjoint ranges can be packed concurrently. Only the
// padding is zeroed: A's rows past m by the range that holds row m - 1,
// and B's columns past n by each row as it is packed. The packs are
// shared across every k-tile, every plane combo, and every
// output tile of the call -- the host-side analogue of §4's FRAG caching
// (stage once, reuse across the O(N^3) loop). Zero padding is harmless:
// padded lanes are computed and discarded (never copied back into D), and
// the k extent is never padded, so the pair-sum structure over k -- the
// bit-exactness-critical part -- is untouched.

#include <cstddef>
#include <span>
#include <vector>

#include "gemm/matrix.hpp"

namespace egemm::gemm {

/// Extent of the packing tiles; matches the wmma primitive and the packed
/// block kernel's fixed shape.
inline constexpr std::size_t kPackTile = 16;

/// One plane's pack: growing it leaves the new floats unwritten, since
/// the row packs overwrite every one.
using PackBuffer = std::vector<float, DefaultInitAllocator<float>>;

/// Row-blocked packed copy of a stack of A planes.
class PackedPlanesA {
 public:
  /// Empty pack; fill with assign(), or resize() then pack_rows(). Lets a
  /// plan workspace hold the pack across calls and repack in place.
  PackedPlanesA() = default;

  /// Sizes the pack for `planes` planes of an (m x k) operand, reusing the
  /// existing buffers. Returns true when any buffer had to grow (i.e. the
  /// call allocated) -- the plan layer's debug allocation guard keys off
  /// this. The contents are unspecified until every row is packed.
  bool resize(std::size_t planes, std::size_t m, std::size_t k);

  /// Packs rows [r0, r1) of `planes` (sized as in resize()); the range
  /// ending at row m also zeroes the rows past m. Disjoint ranges may run
  /// concurrently.
  void pack_rows(std::span<const Matrix> planes, std::size_t r0,
                 std::size_t r1);

  /// resize() to `planes`, then pack every row; returns resize()'s result.
  bool assign(std::span<const Matrix> planes);

  /// 16 x k row-major block (leading dimension k) for `block_row` of
  /// plane `plane`.
  const float* block(std::size_t plane, std::size_t block_row) const noexcept {
    return planes_[plane].data() + block_row * kPackTile * k_;
  }

 private:
  std::size_t m_ = 0;
  std::size_t row_blocks_ = 0;
  std::size_t k_ = 0;
  std::vector<PackBuffer> planes_;
};

/// Column-blocked packed copy of a stack of B planes.
class PackedPlanesB {
 public:
  PackedPlanesB() = default;

  /// Sizes the pack for `planes` planes of a (k x n) operand, reusing the
  /// existing buffers; returns true when any buffer had to grow.
  bool resize(std::size_t planes, std::size_t k, std::size_t n);

  /// Packs rows [r0, r1) of `planes` into every column block, zeroing
  /// those rows' columns past n in the last block. Disjoint ranges may run
  /// concurrently.
  void pack_rows(std::span<const Matrix> planes, std::size_t r0,
                 std::size_t r1);

  /// resize() to `planes`, then pack every row; returns resize()'s result.
  bool assign(std::span<const Matrix> planes);

  /// k x 16 row-major contiguous block for `block_col` of plane `plane`;
  /// the k-slab at row offset k0 starts at `block(...) + k0 * kPackTile`.
  const float* block(std::size_t plane, std::size_t block_col) const noexcept {
    return planes_[plane].data() + block_col * k_ * kPackTile;
  }

 private:
  std::size_t col_blocks_ = 0;
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::vector<PackBuffer> planes_;
};

}  // namespace egemm::gemm
