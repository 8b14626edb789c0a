#pragma once
// Tile packing for the packed execution engine (DESIGN.md §10).
//
// Per GEMM call, each input matrix is split into binary16-valued planes
// exactly once (the O(N^2) pass), and the split writes every plane ONCE,
// straight into a tile-blocked contiguous layout that the recipe kernel
// (tcsim::mma_tile_recipe) streams at unit stride. A and B share one
// layout: a pack of `lanes` x k holds 16-lane panels stored k-major, each
// k of a panel one 16-float (64-byte) run.
//
//   pack (lanes x k)  ->  panel q holds lanes [q*16, q*16+16), with
//       element (l, kk) at block(p, l/16)[kk*16 + l%16] (lanes past
//       `lanes` are zero). A k-slab starts at panel offset k0*16.
//
// A's lanes are its m rows, B's lanes its n columns. A is k-major because
// the kernel broadcasts A's 16 values of each k: from a row-major block
// they would sit k floats apart (runtime-stride addressing, and at
// k = 1024 all 16 rows in one L1 set); k-major they are one line at fixed
// offsets, and the kernel reads both packs as two sequential streams.
//
// A pack is sized once per call (resize) and then filled by source row
// ranges (fill_rows), so disjoint ranges can be filled concurrently. The
// source's rows may be wider than the pack (a leading dimension), so a
// pack can hold a lane range of a larger operand: an execute's region
// packs only the A rows and B columns its tiles read. A fill
// reads a row-major binary32 source and passes runs of it through the
// caller's elementwise `split`, which writes every plane's run. Which of
// the two fills runs depends only on what the source's rows are
// (PackSource), not on the operand's role:
//
//   * lane rows (A as given, or B given as its transpose: lanes x k): the
//     transposing fill. One 16-lane panel by 64 columns at a time goes
//     k-major into an L1 strip (4x4 SSE transposes), and `split` writes
//     the strip's planes straight into the panel: one transposition per
//     input element, whatever the plane count. A range starts on a panel
//     edge, so every strip is a whole panel's 16 lanes; the last panel's
//     lanes past `lanes` enter the strip as zeros and split to +0.
//   * k rows (B as given, or A given as its transpose: k x lanes): the
//     copying fill. Runs are split into a strip of at most kPackStrip
//     floats per plane (several whole rows when lanes <= kPackStrip, a
//     16-aligned column run of one row when not), whose 16-float segments
//     are then copied into each panel, zeroing the last panel's lanes past
//     `lanes` row by row.
//
// The padding is +0 either way. The packs are shared across every k-tile,
// every split-product term, and every output tile that reads them -- the
// host-side analogue of §4's FRAG caching (stage once, reuse across the
// O(N^3) loop) -- and a kept pack (gemm/plan.hpp) across calls. Zero
// padding is harmless: padded lanes are computed and discarded (never
// copied back into D), and the k extent is never padded, so the pair-sum
// structure over k -- the bit-exactness-critical part -- is untouched.

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

/// Floats per plane in the L1 strips a source's rows pass through on their
/// way to the panels: at three planes the copying fill's strip is 12 KiB.
/// A multiple of kPackTile, so a strip that cuts a k row cuts it on a
/// panel edge and a transposing strip holds whole 16-lane k lines.
inline constexpr std::size_t kPackStrip = 1024;
static_assert(kPackStrip % kPackTile == 0);

/// One plane's pack: growing it leaves the new floats unwritten, since
/// the row fills overwrite every one.
using PackBuffer = std::vector<float, DefaultInitAllocator<float>>;

/// A pack's split: `split(in, count, out)` writes plane p of each value
/// in[0, count) to out[p][0, count). It must act element by element (the
/// packs feed it runs in whatever order they store) and split +0 to +0
/// in every plane (the transposing fill's padding lanes pass through it).
template <typename Split>
concept PlaneSplit = requires(const Split& split, const float* in,
                              float* const* out) {
  split(in, std::size_t{}, out);
};

/// What a pack's row-major source holds in its rows (see the header).
enum class PackSource {
  kLaneRows,  ///< lanes x k: A as given, B given as its transpose
  kKRows,     ///< k x lanes: B as given, A given as its transpose
};

/// Panel-blocked packed stack of split planes: A's or B's, the layout is
/// one.
class PackedPlanes {
 public:
  /// Empty pack; fill with resize() then fill_rows(), or assign(). Lets a
  /// plan workspace hold the pack across calls and refill it in place.
  PackedPlanes() = default;

  /// Sizes the pack for `planes` planes of a lanes x k operand, reusing
  /// the existing buffers. Returns true when any buffer had to grow (i.e.
  /// the call allocated) -- the plan layer's debug allocation guard keys
  /// off this. The contents are unspecified until every row is filled.
  bool resize(std::size_t planes, std::size_t lanes, std::size_t k);

  /// Grows the storage, never the extents, to hold `planes` planes of
  /// `floats` floats each, so later resize() calls up to that size do not
  /// allocate. Returns true when it allocated.
  bool reserve(std::size_t planes, std::size_t floats);

  std::size_t planes() const noexcept { return planes_count_; }
  std::size_t lanes() const noexcept { return lanes_; }
  std::size_t k() const noexcept { return k_; }

  /// Fills source rows [r0, r1) of every plane from `src`, the row-major
  /// operand in `source` orientation whose rows are `ld` floats apart
  /// (ld >= the row width: k for lane rows, lanes() for k rows), through
  /// `split`. A wider `ld` lets a pack hold a column range of a larger
  /// matrix. Lane rows go through the transposing fill and must start on a
  /// panel edge and end on one or at lanes(); k rows go through the
  /// copying fill and may be cut anywhere. Disjoint ranges write disjoint
  /// floats and may run concurrently.
  template <PlaneSplit Split>
  void fill_rows(PackSource source, std::size_t r0, std::size_t r1,
                 const float* src, std::size_t ld, const Split& split) {
    if (source == PackSource::kLaneRows) {
      EGEMM_EXPECTS(ld >= k_);
      fill_lanes(r0, r1, src, ld, split);
    } else {
      EGEMM_EXPECTS(ld >= lanes_);
      fill_k(r0, r1, src, ld, split);
    }
  }

  /// resize() to `planes` (each a lanes x k or k x lanes matrix, per
  /// `source`), then copy the already-split planes in; returns resize()'s
  /// result.
  bool assign(std::span<const Matrix> planes, PackSource source);

  /// k x 16 k-major panel `panel` of plane `plane`: element (l, kk), l in
  /// [panel*16, panel*16 + 16), sits at block(...)[kk * kPackTile + l %
  /// kPackTile]; the k-slab at offset k0 starts at `block(...) + k0 *
  /// kPackTile`.
  const float* block(std::size_t plane, std::size_t panel) const noexcept {
    return planes_[plane].data() + panel * kPackTile * k_;
  }

 private:
  /// The transposing fill: lanes [l0, l1) from `src`, lanes x k with
  /// leading dimension `ld`, one whole panel and 64 columns at a time (the
  /// last panel's lanes past lanes() split from zeros).
  template <PlaneSplit Split>
  void fill_lanes(std::size_t l0, std::size_t l1, const float* src,
                  std::size_t ld, const Split& split) {
    EGEMM_EXPECTS(l0 <= l1 && l1 <= lanes_);
    if (l0 == l1) return;
    EGEMM_EXPECTS(l0 % kPackTile == 0 &&
                  (l1 % kPackTile == 0 || l1 == lanes_));
    constexpr std::size_t kCols = kPackStrip / kPackTile;
    alignas(64) float in[kPackStrip];
    for (std::size_t b0 = l0; b0 < l1; b0 += kPackTile) {
      const std::size_t lanes = std::min(kPackTile, l1 - b0);
      // The transposes write only the live lanes; the rest stay zero.
      if (lanes < kPackTile) std::fill_n(in, kPackStrip, 0.0f);
      for (std::size_t c0 = 0; c0 < k_; c0 += kCols) {
        const std::size_t cols = std::min(kCols, k_ - c0);
        transpose_tile(src + b0 * ld + c0, ld, lanes, cols, in, kPackTile);
        float* out[kMaxPackPlanes] = {};
        for (std::size_t p = 0; p < planes_count_; ++p) {
          out[p] = planes_[p].data() + b0 * k_ + c0 * kPackTile;
        }
        split(in, cols * kPackTile, out);
      }
    }
    count_fill(l1 - l0, k_);
  }

  /// The copying fill: k rows [r0, r1) from `src`, k x lanes with leading
  /// dimension `ld`, one L1 strip at a time (kPackStrip floats per plane),
  /// copying each strip into the panels and zeroing those rows' lanes past
  /// lanes() in the last panel. When the rows are not contiguous (ld >
  /// lanes()), a strip's rows are gathered first, so each strip is still
  /// one split call.
  template <PlaneSplit Split>
  void fill_k(std::size_t r0, std::size_t r1, const float* src,
              std::size_t ld, const Split& split) {
    EGEMM_EXPECTS(r0 <= r1 && r1 <= k_);
    if (r0 == r1 || lanes_ == 0) return;
    alignas(64) float strip[kMaxPackPlanes][kPackStrip];
    float* const out[kMaxPackPlanes] = {strip[0], strip[1], strip[2]};
    if (lanes_ <= kPackStrip) {
      // Whole rows per strip.
      const std::size_t rows_per_strip = kPackStrip / lanes_;
      alignas(64) float gathered[kPackStrip];
      for (std::size_t r = r0; r < r1; r += rows_per_strip) {
        const std::size_t rows = std::min(rows_per_strip, r1 - r);
        const float* in = src + r * ld;
        if (ld != lanes_) {
          for (std::size_t i = 0; i < rows; ++i) {
            std::copy_n(in + i * ld, lanes_, gathered + i * lanes_);
          }
          in = gathered;
        }
        split(in, rows * lanes_, out);
        copy_segments(out, r, rows, 0, lanes_);
      }
    } else {
      // One row in 16-aligned column runs.
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c0 = 0; c0 < lanes_; c0 += kPackStrip) {
          const std::size_t c1 = std::min(lanes_, c0 + kPackStrip);
          split(src + r * ld + c0, c1 - c0, out);
          copy_segments(out, r, 1, c0, c1);
        }
      }
    }
    count_fill(r1 - r0, (lanes_ + kPackTile - 1) / kPackTile * kPackTile);
  }

  /// Transposes `rows` rows of `cols` floats from src (leading dimension
  /// `ld`) to dst k-major: dst[c * dst_ld + i] = src[i * ld + c]. Groups
  /// of four rows go four columns at a time through 4x4 SSE transposes.
  static void transpose_tile(const float* src, std::size_t ld,
                             std::size_t rows, std::size_t cols, float* dst,
                             std::size_t dst_ld);

  /// Copies lanes [c0, c1) of k rows [r, r + rows) (c0 a multiple of
  /// kPackTile) from strip[p], row-major with leading dimension c1 - c0,
  /// into each plane's panels, zeroing the last panel's lanes past
  /// lanes() when c1 == lanes(). assign() passes the planes themselves.
  void copy_segments(const float* const* strip, std::size_t r,
                     std::size_t rows, std::size_t c0, std::size_t c1);

  /// Counts a fill of `rows` source rows of `width` packed floats each.
  void count_fill(std::size_t rows, std::size_t width) const;

  std::size_t lanes_ = 0;
  std::size_t k_ = 0;
  std::size_t planes_count_ = 0;
  /// At least planes_count_ buffers: a pack resized to fewer planes keeps
  /// the others' storage for the next resize to more.
  std::vector<PackBuffer> planes_;
};

/// A pack of A planes as given (m x k): assign() transposes them.
class PackedPlanesA : public PackedPlanes {
 public:
  bool assign(std::span<const Matrix> planes) {
    return PackedPlanes::assign(planes, PackSource::kLaneRows);
  }
};

/// A pack of B planes as given (k x n): assign() copies them.
class PackedPlanesB : public PackedPlanes {
 public:
  bool assign(std::span<const Matrix> planes) {
    return PackedPlanes::assign(planes, PackSource::kKRows);
  }
};

}  // namespace egemm::gemm
