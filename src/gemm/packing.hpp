#pragma once
// Tile packing for the packed execution engine (DESIGN.md §10).
//
// Per GEMM call, each input matrix is split into binary16-valued planes
// exactly once (the O(N^2) pass), and the split writes every plane ONCE,
// straight into a tile-blocked contiguous layout that the recipe kernel
// (tcsim::mma_tile_recipe) streams at unit stride. Both operands' blocks
// are k-major, the layout the kernel consumes: each k of a block is one
// 16-float (64-byte) run.
//
//   A plane (m x k)  ->  row blocks: block rb holds rows [rb*16, rb*16+16)
//       with element (r, kk) at block(p, r/16)[kk*16 + r%16] (lanes of
//       rows past m are zero). A k-slab starts at block offset k0*16.
//   B plane (k x n)  ->  column blocks: block cb holds columns
//       [cb*16, cb*16+16) with element (kk, j) at
//       block(p, j/16)[kk*16 + j%16] (lanes of columns past n are zero).
//       A k-slab starts at block offset k0*16.
//
// A is k-major because the kernel broadcasts A's 16 values of each k:
// from a row-major block they would sit k floats apart (runtime-stride
// addressing, and at k = 1024 all 16 rows in one L1 set); k-major they
// are one line at fixed offsets, and the kernel reads both packs as two
// sequential streams.
//
// A pack is sized once per call (resize) and then filled by row ranges
// (fill_rows), so disjoint ranges can be filled concurrently. A fill reads
// the row-major binary32 operand and passes runs of it through the
// caller's elementwise `split`, which writes every plane's run:
//
//   * A's rows are transposed k-major, one 16-row block by 64 columns at
//     a time, into an L1 strip (4x4 SSE transposes), and `split` writes
//     the strip's planes straight into the block: one transposition per
//     input element, whatever the plane count. A range starts on a block
//     edge, so every strip is a whole block's 16 lanes; the last block's
//     rows past m enter the strip as zeros and split to +0.
//   * B's runs are split into a strip of at most kPackStrip floats per
//     plane (several whole rows when n is small, a 16-aligned column run
//     of one row when it is not), whose 16-float segments are then copied
//     into each column block.
//
// The padding is +0: A's lanes past m come out of the split as such, and
// B's columns past n are zeroed by each row as it is filled. The packs
// are shared across every k-tile, every split-product term, and every
// output tile of the call -- the host-side analogue of §4's FRAG caching
// (stage once, reuse across the O(N^3) loop). Zero padding is harmless:
// padded lanes are computed and discarded (never copied back into D),
// and the k extent is never padded, so the pair-sum structure over k --
// the bit-exactness-critical part -- is untouched.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/split.hpp"
#include "gemm/matrix.hpp"
#include "util/assert.hpp"

namespace egemm::gemm {

/// Extent of the packing tiles; matches the wmma primitive and the packed
/// block kernel's fixed shape.
inline constexpr std::size_t kPackTile = 16;

/// Most planes a pack holds: one per split plane.
inline constexpr std::size_t kMaxPackPlanes = core::kMaxSplitPlanes;

/// Floats per plane in the L1 strips a pack's rows pass through on their
/// way to the blocks: at three planes B's strip is 12 KiB. A multiple of
/// kPackTile, so a strip that cuts a row cuts it on a block edge (B) and
/// holds whole 16-lane k lines (A).
inline constexpr std::size_t kPackStrip = 1024;
static_assert(kPackStrip % kPackTile == 0);

/// One plane's pack: growing it leaves the new floats unwritten, since
/// the row fills overwrite every one.
using PackBuffer = std::vector<float, DefaultInitAllocator<float>>;

/// A pack's split: `split(in, count, out)` writes plane p of each value
/// in[0, count) to out[p][0, count). It must act element by element (the
/// packs feed it runs in whatever order they store) and split +0 to +0
/// in every plane (the A pack's padding lanes pass through it).
template <typename Split>
concept PlaneSplit = requires(const Split& split, const float* in,
                              float* const* out) {
  split(in, std::size_t{}, out);
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

  /// Fills rows [r0, r1) of every plane from `src`, the row-major m x k
  /// operand, through `split`, one whole block and 64 columns at a time
  /// (the last block's lanes past m split from zeros). A non-empty range
  /// starts on a 16-row block edge and ends on one or at m, so disjoint
  /// ranges write disjoint blocks and may run concurrently.
  template <PlaneSplit Split>
  void fill_rows(std::size_t r0, std::size_t r1, const float* src,
                 const Split& split) {
    EGEMM_EXPECTS(r0 <= r1 && r1 <= m_);
    if (r0 == r1) return;
    EGEMM_EXPECTS(r0 % kPackTile == 0 && (r1 % kPackTile == 0 || r1 == m_));
    constexpr std::size_t kCols = kPackStrip / kPackTile;
    alignas(64) float in[kPackStrip];
    for (std::size_t b0 = r0; b0 < r1; b0 += kPackTile) {
      const std::size_t lanes = std::min(kPackTile, r1 - b0);
      // The transposes write only the live lanes; the rest stay zero.
      if (lanes < kPackTile) std::fill_n(in, kPackStrip, 0.0f);
      for (std::size_t c0 = 0; c0 < k_; c0 += kCols) {
        const std::size_t cols = std::min(kCols, k_ - c0);
        transpose_tile(src + b0 * k_ + c0, k_, lanes, cols, in, kPackTile);
        float* out[kMaxPackPlanes] = {};
        for (std::size_t p = 0; p < planes_.size(); ++p) {
          out[p] = planes_[p].data() + b0 * k_ + c0 * kPackTile;
        }
        split(in, cols * kPackTile, out);
      }
    }
    count_rows(r0, r1);
  }

  /// resize() to `planes`, then copy the already-split planes in; returns
  /// resize()'s result.
  bool assign(std::span<const Matrix> planes);

  /// k x 16 k-major block for `block_row` of plane `plane`: element
  /// (r, kk) of the plane, r in [block_row*16, block_row*16 + 16), sits at
  /// block(...)[kk * kPackTile + r % kPackTile]; the k-slab at column
  /// offset k0 starts at `block(...) + k0 * kPackTile`.
  const float* block(std::size_t plane, std::size_t block_row) const noexcept {
    return planes_[plane].data() + block_row * kPackTile * k_;
  }

 private:
  /// Transposes `rows` rows of `cols` floats from src (leading dimension
  /// `ld`) to dst k-major: dst[c * dst_ld + i] = src[i * ld + c]. Groups
  /// of four rows go four columns at a time through 4x4 SSE transposes.
  static void transpose_tile(const float* src, std::size_t ld,
                             std::size_t rows, std::size_t cols, float* dst,
                             std::size_t dst_ld);

  /// Counts the fill of rows [r0, r1).
  void count_rows(std::size_t r0, std::size_t r1) const;

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

  /// Fills rows [r0, r1) of every plane from `src`, the row-major k x n
  /// operand, through `split`, one L1 strip at a time (kPackStrip floats
  /// per plane), copying each strip into the column blocks and zeroing
  /// those rows' columns past n in the last block. Disjoint ranges may run
  /// concurrently.
  template <PlaneSplit Split>
  void fill_rows(std::size_t r0, std::size_t r1, const float* src,
                 const Split& split) {
    EGEMM_EXPECTS(r0 <= r1 && r1 <= k_);
    if (r0 == r1 || n_ == 0) return;
    alignas(64) float strip[kMaxPackPlanes][kPackStrip];
    float* const out[kMaxPackPlanes] = {strip[0], strip[1], strip[2]};
    if (n_ <= kPackStrip) {
      // Whole rows per strip.
      const std::size_t rows_per_strip = kPackStrip / n_;
      for (std::size_t r = r0; r < r1; r += rows_per_strip) {
        const std::size_t rows = std::min(rows_per_strip, r1 - r);
        split(src + r * n_, rows * n_, out);
        copy_segments(out, r, rows, 0, n_);
      }
    } else {
      // One row in 16-aligned column runs.
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c0 = 0; c0 < n_; c0 += kPackStrip) {
          const std::size_t c1 = std::min(n_, c0 + kPackStrip);
          split(src + r * n_ + c0, c1 - c0, out);
          copy_segments(out, r, 1, c0, c1);
        }
      }
    }
    count_rows(r0, r1);
  }

  /// resize() to `planes`, then copy the already-split planes in; returns
  /// resize()'s result.
  bool assign(std::span<const Matrix> planes);

  /// k x 16 k-major block for `block_col` of plane `plane`: element
  /// (kk, j) sits at block(...)[kk * kPackTile + j % kPackTile]; the
  /// k-slab at row offset k0 starts at `block(...) + k0 * kPackTile`.
  const float* block(std::size_t plane, std::size_t block_col) const noexcept {
    return planes_[plane].data() + block_col * k_ * kPackTile;
  }

 private:
  /// Copies columns [c0, c1) of rows [r, r + rows) (c0 a multiple of
  /// kPackTile) from strip[p], row-major with leading dimension c1 - c0,
  /// into each plane's column blocks, zeroing the last block's columns
  /// past n when c1 == n. assign() passes the planes themselves.
  void copy_segments(const float* const* strip, std::size_t r,
                     std::size_t rows, std::size_t c0, std::size_t c1);

  /// Counts the fill of rows [r0, r1).
  void count_rows(std::size_t r0, std::size_t r1) const;

  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::vector<PackBuffer> planes_;
};

}  // namespace egemm::gemm
