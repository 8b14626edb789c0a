#pragma once
// How an execute cuts its items into regions (gemm/plan.cpp's run_regions,
// DESIGN.md §18). A region is a block of one item's output tiles, and the
// thread that runs it splits the A rows and B columns it reads (unless the
// item has their whole pack) into its own workspace, then multiplies them
// there. Engine internal; a header only so tests can pin the cuts and
// force others.

#include <algorithm>
#include <cstddef>

#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"

namespace egemm::gemm {

/// An item's cut: `rows` row block ranges by `cols` column block ranges,
/// one region where each pair meets.
struct RegionGrid {
  std::size_t rows = 1;
  std::size_t cols = 1;
};

/// The cut rule's grid for an m x n output in up to `regions` regions:
/// the p x q grid with p * q = regions that minimizes m/p + n/q -- the A
/// rows plus the B columns one region splits, so the item splits A q
/// times and B p times -- among grids with no more row ranges than row
/// blocks and no more column ranges than column blocks, trying fewer
/// regions when none fits. {0, 0} for an output with no tiles.
RegionGrid region_grid(std::size_t m, std::size_t n, std::size_t regions);

/// One block of an item's output tiles: row tiles [rb0, rb1) by column
/// tiles [cb0, cb1).
struct TileBlock {
  std::size_t rb0 = 0, rb1 = 0, cb0 = 0, cb1 = 0;
};

/// A row_tiles x col_tiles output cut into `count` blocks of rows x cols
/// tiles, `across` to a row, numbered row-major. Computed per task, not
/// listed: a per-call vector of blocks changed how the allocator recycled
/// a large execute's packs, so cold 1024^3 executes re-faulted them
/// (large-square setup_s +30%).
struct TileBlocks {
  std::size_t row_tiles = 0, col_tiles = 0;
  std::size_t rows = 1, cols = 1;
  std::size_t across = 0, count = 0;

  TileBlock block(std::size_t i) const noexcept {
    const std::size_t rb0 = i / across * rows;
    const std::size_t cb0 = i % across * cols;
    return {rb0, std::min(row_tiles, rb0 + rows), cb0,
            std::min(col_tiles, cb0 + cols)};
  }
};

/// The block rule, the cut of an item filled whole: it splits nothing in
/// the pass, so it is cut for balance, into about 8 blocks per pool thread
/// (`threads`), each as square as that grain of tiles allows (a grid too
/// narrow spends it along its long axis); none for an output with no tiles.
TileBlocks tile_blocks(std::size_t row_tiles, std::size_t col_tiles,
                       std::size_t threads);

/// GemmPlan::execute on the grid `grid` (clipped to the output's blocks)
/// instead of the cut rule's, pooled or inline by the usual rule. Tests
/// use it to check that every cut gives the same bits.
void execute_on_grid(GemmContext& ctx, const GemmPlan& plan,
                     const Operand& a, const Operand& b, const Matrix* c,
                     Matrix& d, RegionGrid grid);

}  // namespace egemm::gemm
