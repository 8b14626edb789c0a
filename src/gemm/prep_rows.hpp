#pragma once
// How a pooled execute cuts one item's prep -- the split straight into
// the packs -- into row-range chunks (gemm/plan.cpp's prep_rows). Engine
// internal; a header only so tests can pin where the cuts fall.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "gemm/packing.hpp"

namespace egemm::gemm {

/// Floor on the elements one prep chunk reads and writes (PrepRows). All
/// of a call's chunks share ONE pool pass (one ~1.6 us fork-join), so the
/// floor does not amortize dispatch; it trades how far a small item's
/// prep spreads over the pool against each chunk's fixed cost (its split
/// calls, strips and stage timers). At 2^13 every pooled small-stream
/// item (m*n*k >= 2^18: 18K-197K elements read and written) preps in
/// 2-24 chunks. Swept on a 4-vCPU AVX-512 Xeon VM (split straight into
/// the packs, e2e small-stream, six rotated 8 s runs): gflops 18.9 at
/// 2^13, 18.5 at 2^12 and 18.7 at 2^14, op p50 45.5 / 46.3 / 48.7 us;
/// 2^12 beat 2^13 in 2/6 runs on gflops and 3/6 on p50, 2^14 in 1/6 and
/// 0/6. With separate planes the same floor had won against 2^11, 2^15
/// and 2^18 (at 2^18 each item prepped on one thread while three waited:
/// pool busy 0.47 vs 0.69). grouped-3term was flat across that sweep: its
/// 64 items already fill the pass.
inline constexpr std::uint64_t kPrepChunkElems = std::uint64_t{1} << 13;

/// An item's prep as one row space: A's m rows, then B's k rows. A row
/// weighs the elements it reads and writes: the split reads it and writes
/// `planes` planes into the pack through an L1 strip. A can only be cut on
/// a 16-row block edge (or m): a k-major A block interleaves its 16 rows
/// in every line, so a block is filled by one chunk. The space is cut into
/// chunks of equal weight, each at least kPrepChunkElems and at least the
/// heaviest unit it cannot cut (an A block, a B row), so an item lighter
/// than two such grains is one chunk and every chunk holds rows.
struct PrepRows {
  std::size_t m, k;
  std::uint64_t a_row, b_row, total;
  std::size_t chunks;

  /// The prep of an (a_rows x b_rows) x (b_rows x n) product split into
  /// `planes` planes.
  PrepRows(std::size_t a_rows, std::size_t n, std::size_t b_rows, int planes)
      : m(a_rows),
        k(b_rows),
        a_row((static_cast<std::uint64_t>(planes) + 1) * b_rows),
        b_row((static_cast<std::uint64_t>(planes) + 1) * n),
        total(m * a_row + k * b_row),
        chunks(static_cast<std::size_t>(std::max<std::uint64_t>(
            1, total / std::max({kPrepChunkElems, kPackTile * a_row,
                                 b_row})))) {}

  /// First row of chunk `j`, rounded up to the next cut A or B allows;
  /// start(chunks) is the end of the space. A chunk's weight is at least
  /// the widest gap between allowed cuts, so start(j) < start(j + 1).
  std::size_t start(std::size_t j) const {
    if (j == 0) return 0;
    if (j == chunks) return m + k;
    const auto ceil_div = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<std::size_t>((x + y - 1) / y);
    };
    const std::uint64_t x = j * total / chunks;
    const std::uint64_t a_total = m * a_row;
    return x <= a_total
               ? std::min(m, ceil_div(x, kPackTile * a_row) * kPackTile)
               : m + ceil_div(x - a_total, b_row);
  }
};

}  // namespace egemm::gemm
