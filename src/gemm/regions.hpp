#pragma once
// How an execute cuts its items into regions (gemm/plan.cpp's run_items,
// DESIGN.md §18). A region is a block of one item's output tiles -- a row
// block range by a column block range -- and the thread that runs it
// splits the A rows and B columns it reads (unless they are kept packs)
// into its own workspace, then multiplies them there. Engine internal; a
// header only so tests can pin the cut and force others.

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

/// GemmPlan::execute on the grid `grid` (clipped to the output's blocks)
/// instead of the cut rule's, pooled or inline by the usual rule. Tests
/// use it to check that every cut gives the same bits.
void execute_on_grid(GemmContext& ctx, const GemmPlan& plan,
                     const Operand& a, const Operand& b, const Matrix* c,
                     Matrix& d, RegionGrid grid);

}  // namespace egemm::gemm
