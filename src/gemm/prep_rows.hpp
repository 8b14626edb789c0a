#pragma once
// How the whole fill (gemm/plan.cpp's fill_whole: a kept pack's, or a large
// pooled item's) cuts one item's prep -- the split straight into the packs
// -- into row-range chunks. Engine internal; a header only so tests can
// pin where the cuts fall.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "gemm/packing.hpp"

namespace egemm::gemm {

/// Floor on the elements one prep chunk reads and writes (PrepRows). All
/// of a call's chunks share ONE pool pass (one ~1.6 us fork-join), so the
/// floor does not amortize dispatch; it trades how far a small item's
/// prep spreads over the pool against each chunk's fixed cost (its split
/// calls, strips and stage timers). When small-stream's pooled items
/// (m*n*k >= 2^18: 18K-197K elements read and written) still prepped
/// this way, 2^13 cut each into 2-24 chunks. Swept on a 4-vCPU AVX-512 Xeon VM (split straight into
/// the packs, e2e small-stream, six rotated 8 s runs): gflops 18.9 at
/// 2^13, 18.5 at 2^12 and 18.7 at 2^14, op p50 45.5 / 46.3 / 48.7 us;
/// 2^12 beat 2^13 in 2/6 runs on gflops and 3/6 on p50, 2^14 in 1/6 and
/// 0/6. With separate planes the same floor had won against 2^11, 2^15
/// and 2^18 (at 2^18 each item prepped on one thread while three waited:
/// pool busy 0.47 vs 0.69). Those sweeps predate regions: small-stream's
/// pooled items now prep per region, so the floor only cuts items above
/// kRegionMaxWork and kept packs, and has not been re-swept there.
inline constexpr std::uint64_t kPrepChunkElems = std::uint64_t{1} << 13;

/// One operand's share of an item's prep: the rows of its source, each
/// weighing the elements it reads and writes (the split reads it and
/// writes `planes` planes into the pack through an L1 strip), cut only on
/// multiples of `grain` or at `rows`. Lane rows (the transposing fill) cut
/// on 16-lane panel edges: a k-major panel interleaves its 16 lanes in
/// every line, so a panel is filled by one chunk. k rows (the copying
/// fill) cut anywhere. An operand passed as a kept pack has no rows.
struct PrepSpan {
  std::size_t rows = 0;
  std::size_t grain = 1;
  std::uint64_t row_weight = 0;

  /// The span of a lanes x k pack of `planes` planes filled from a source
  /// in `source` orientation.
  static PrepSpan of(PackSource source, std::size_t lanes, std::size_t k,
                     int planes) {
    const auto weight = static_cast<std::uint64_t>(planes) + 1;
    return source == PackSource::kLaneRows
               ? PrepSpan{lanes, kPackTile, weight * k}
               : PrepSpan{k, 1, weight * lanes};
  }

  std::uint64_t total() const noexcept { return rows * row_weight; }
  /// The heaviest unit a chunk cannot cut.
  std::uint64_t unit() const noexcept { return grain * row_weight; }
};

/// An item's prep as one row space: A's source rows, then B's. The space
/// is cut into chunks of equal weight, each at least kPrepChunkElems and
/// at least the heaviest unit it cannot cut (a lane panel, a k row), so an
/// item lighter than two such grains is one chunk and every chunk of a
/// non-empty space holds rows.
struct PrepRows {
  PrepSpan a, b;
  std::uint64_t total = 0;
  std::size_t chunks = 1;

  PrepRows() = default;
  PrepRows(const PrepSpan& a_span, const PrepSpan& b_span)
      : a(a_span),
        b(b_span),
        total(a.total() + b.total()),
        chunks(static_cast<std::size_t>(std::max<std::uint64_t>(
            1, total / std::max({kPrepChunkElems, a.unit(), b.unit()})))) {}

  /// One past the last row of the space.
  std::size_t end() const noexcept { return a.rows + b.rows; }

  /// First row of chunk `j`, rounded up to the next cut its operand's
  /// fill allows; start(chunks) is end(). A chunk's weight is at least the
  /// widest gap between allowed cuts, so start(j) < start(j + 1).
  std::size_t start(std::size_t j) const {
    if (j == 0) return 0;
    if (j == chunks) return end();
    const auto cut = [](const PrepSpan& span, std::uint64_t x) {
      const std::uint64_t unit = span.unit();
      return std::min(span.rows,
                      static_cast<std::size_t>((x + unit - 1) / unit) *
                          span.grain);
    };
    const std::uint64_t x = j * total / chunks;
    const std::uint64_t a_total = a.total();
    return x <= a_total ? cut(a, x) : a.rows + cut(b, x - a_total);
  }
};

}  // namespace egemm::gemm
