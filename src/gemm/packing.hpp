#pragma once
// Tile packing for the packed execution engine (DESIGN.md §10).
//
// Per GEMM call, each input matrix is split into binary16-valued planes
// exactly once (the O(N^2) pass), and the split writes every plane ONCE,
// straight into a tile-blocked contiguous layout that the recipe kernel
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
// (fill_rows), so disjoint ranges can be filled concurrently. The caller's
// `fill` writes a run of the row-major plane elements for every plane:
//
//   * A's pack IS the row-major plane stack (leading dimension k) plus
//     zero rows up to the next multiple of 16, so `fill` writes rows
//     [r0, r1) in place, in one call.
//   * B's rows reach the pack through a strip of at most kPackStrip floats
//     per plane (a stack buffer that stays in L1): `fill` writes the strip
//     -- several whole rows when n is small, a 16-aligned column run of one
//     row when it is not -- and its 16-float segments are then copied into
//     each column block.
//
// Only the padding is zeroed: A's rows past m by the range that holds row
// m - 1, and B's columns past n by each row as it is filled. The packs are
// shared across every k-tile, every plane combo, and every output tile of
// the call -- the host-side analogue of §4's FRAG caching (stage once,
// reuse across the O(N^3) loop). Zero padding is harmless: padded lanes
// are computed and discarded (never copied back into D), and the k extent
// is never padded, so the pair-sum structure over k -- the
// bit-exactness-critical part -- is untouched.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "gemm/matrix.hpp"
#include "util/assert.hpp"

namespace egemm::gemm {

/// Extent of the packing tiles; matches the wmma primitive and the packed
/// block kernel's fixed shape.
inline constexpr std::size_t kPackTile = 16;

/// Most planes a pack holds (the three-way split).
inline constexpr std::size_t kMaxPackPlanes = 3;

/// Floats per plane in the L1 strip B's rows pass through on their way to
/// the column blocks: at three planes the strip is 12 KiB. A multiple of
/// kPackTile, so a strip that cuts a row cuts it on a column-block edge.
inline constexpr std::size_t kPackStrip = 1024;
static_assert(kPackStrip % kPackTile == 0);

/// One plane's pack: growing it leaves the new floats unwritten, since
/// the row fills overwrite every one.
using PackBuffer = std::vector<float, DefaultInitAllocator<float>>;

/// A pack's row fill: `fill(first, count, out)` writes elements
/// [first, first + count) of every row-major plane p to out[p][0, count).
template <typename Fill>
concept PlaneFill = requires(const Fill& fill, float* const* out) {
  fill(std::size_t{}, std::size_t{}, out);
};

/// Row-blocked packed stack of A planes.
class PackedPlanesA {
 public:
  /// Empty pack; fill with assign(), or resize() then fill_rows(). Lets a
  /// plan workspace hold the pack across calls and refill it in place.
  PackedPlanesA() = default;

  /// Sizes the pack for `planes` planes of an (m x k) operand, reusing the
  /// existing buffers. Returns true when any buffer had to grow (i.e. the
  /// call allocated) -- the plan layer's debug allocation guard keys off
  /// this. The contents are unspecified until every row is filled.
  bool resize(std::size_t planes, std::size_t m, std::size_t k);

  /// Fills rows [r0, r1) of every plane in place through `fill` (one
  /// call); the range ending at row m also zeroes the rows past m.
  /// Disjoint ranges may run concurrently.
  template <PlaneFill Fill>
  void fill_rows(std::size_t r0, std::size_t r1, const Fill& fill) {
    EGEMM_EXPECTS(r0 <= r1 && r1 <= m_);
    if (r0 == r1) return;
    float* out[kMaxPackPlanes];
    for (std::size_t p = 0; p < planes_.size(); ++p) {
      out[p] = planes_[p].data() + r0 * k_;
    }
    if (k_ > 0) fill(r0 * k_, (r1 - r0) * k_, out);
    finish_rows(r0, r1);
  }

  /// resize() to `planes`, then copy every row in; returns resize()'s
  /// result.
  bool assign(std::span<const Matrix> planes);

  /// 16 x k row-major block (leading dimension k) for `block_row` of
  /// plane `plane`.
  const float* block(std::size_t plane, std::size_t block_row) const noexcept {
    return planes_[plane].data() + block_row * kPackTile * k_;
  }

 private:
  /// Zeroes the rows past m when r1 == m, and counts the fill of the
  /// non-empty range [r0, r1).
  void finish_rows(std::size_t r0, std::size_t r1);

  std::size_t m_ = 0;
  std::size_t k_ = 0;
  std::vector<PackBuffer> planes_;
};

/// Column-blocked packed stack of B planes.
class PackedPlanesB {
 public:
  PackedPlanesB() = default;

  /// Sizes the pack for `planes` planes of a (k x n) operand, reusing the
  /// existing buffers; returns true when any buffer had to grow.
  bool resize(std::size_t planes, std::size_t k, std::size_t n);

  /// Fills rows [r0, r1) of every plane through `fill`, one L1 strip at a
  /// time (kPackStrip floats per plane), copying each strip into the
  /// column blocks and zeroing those rows' columns past n in the last
  /// block. Disjoint ranges may run concurrently.
  template <PlaneFill Fill>
  void fill_rows(std::size_t r0, std::size_t r1, const Fill& fill) {
    EGEMM_EXPECTS(r0 <= r1 && r1 <= k_);
    if (r0 == r1 || n_ == 0) return;
    alignas(64) float strip[kMaxPackPlanes][kPackStrip];
    float* const out[kMaxPackPlanes] = {strip[0], strip[1], strip[2]};
    if (n_ <= kPackStrip) {
      // Whole rows per strip.
      const std::size_t rows_per_strip = kPackStrip / n_;
      for (std::size_t r = r0; r < r1; r += rows_per_strip) {
        const std::size_t rows = std::min(rows_per_strip, r1 - r);
        fill(r * n_, rows * n_, out);
        copy_segments(out, r, rows, 0, n_);
      }
    } else {
      // One row in 16-aligned column runs.
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c0 = 0; c0 < n_; c0 += kPackStrip) {
          const std::size_t c1 = std::min(n_, c0 + kPackStrip);
          fill(r * n_ + c0, c1 - c0, out);
          copy_segments(out, r, 1, c0, c1);
        }
      }
    }
    count_rows(r0, r1);
  }

  /// resize() to `planes`, then copy every row in; returns resize()'s
  /// result.
  bool assign(std::span<const Matrix> planes);

  /// k x 16 row-major contiguous block for `block_col` of plane `plane`;
  /// the k-slab at row offset k0 starts at `block(...) + k0 * kPackTile`.
  const float* block(std::size_t plane, std::size_t block_col) const noexcept {
    return planes_[plane].data() + block_col * k_ * kPackTile;
  }

 private:
  /// Copies columns [c0, c1) of rows [r, r + rows) (c0 a multiple of
  /// kPackTile) from strip[p], row-major with leading dimension c1 - c0,
  /// into each plane's column blocks, zeroing the last block's columns
  /// past n when c1 == n.
  void copy_segments(const float* const* strip, std::size_t r,
                     std::size_t rows, std::size_t c0, std::size_t c1);

  /// Counts the fill of rows [r0, r1).
  void count_rows(std::size_t r0, std::size_t r1) const;

  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::vector<PackBuffer> planes_;
};

}  // namespace egemm::gemm
