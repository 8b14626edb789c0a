// The packed execution engine's contract (DESIGN.md §10): bit-identical to
// the scalar oracle (verify::reference_execute) across every shape, split
// method, combo order, ladder rung, and C-accumulation variant -- including
// shapes smaller than one tile, odd k, and k = 1, where the padding and
// remainder paths differ most between the engine and the oracle.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/dataset.hpp"
#include "apps/kmeans.hpp"
#include "core/scheme.hpp"
#include "core/split.hpp"
#include "gemm/egemm.hpp"
#include "gemm/plan.hpp"
#include "gemm/regions.hpp"
#include "obs/callrec.hpp"
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"
#include "simd/isa.hpp"
#include "util/thread_pool.hpp"
#include "verify/reference_execute.hpp"

namespace egemm::gemm {
namespace {

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.data().empty() ||
          std::memcmp(x.data().data(), y.data().data(),
                      x.data().size() * sizeof(float)) == 0);
}

/// Executes `plan` on the packed engine (default context).
Matrix run_packed(const GemmPlan& plan, const Matrix& a, const Matrix& b,
                  const Matrix* c) {
  Matrix d;
  plan.execute(default_context(), a, b, c, d);
  return d;
}

/// The default EGEMM-TC plan egemm_multiply runs for these operands.
std::shared_ptr<const GemmPlan> egemm_plan(const Matrix& a, const Matrix& b) {
  return default_context().plan(Backend::kEgemmTC, a.rows(), b.cols(),
                                a.cols());
}

struct Shape {
  std::size_t m, n, k;
};

// Below-tile extents, odd k, k = 1, exact multiples, and ragged edges on
// every dimension.
const Shape kShapes[] = {
    {1, 1, 1},    {3, 5, 1},     {16, 16, 16}, {16, 16, 3},
    {5, 3, 31},   {17, 16, 1},   {33, 65, 47}, {64, 64, 64},
    {128, 64, 96}, {16, 48, 17}, {2, 2, 2},    {31, 1, 63},
};

class PackedEngineTest : public ::testing::TestWithParam<Shape> {};

TEST_P(PackedEngineTest, BitIdenticalAcrossSplitsOrdersAndC) {
  const Shape s = GetParam();
  const Matrix a = random_matrix(s.m, s.k, -1, 1, 1000 + s.m + s.k);
  const Matrix b = random_matrix(s.k, s.n, -1, 1, 2000 + s.n + s.k);
  const Matrix c = random_matrix(s.m, s.n, -1, 1, 3000 + s.m + s.n);

  GemmContext& ctx = default_context();
  for (const auto& plan :
       {ctx.plan_scheme(core::SchemeId::kRound2, s.m, s.n, s.k),
        ctx.plan_scheme(core::SchemeId::kTruncate2, s.m, s.n, s.k),
        ctx.plan(Backend::kCublasTcEmulation, s.m, s.n, s.k)}) {
    for (const Matrix* cp : {static_cast<const Matrix*>(nullptr), &c}) {
      EXPECT_TRUE(bitwise_equal(run_packed(*plan, a, b, cp),
                                verify::reference_execute(*plan, a, b, cp)))
          << "shape " << s.m << "x" << s.n << "x" << s.k
          << " split=" << core::split_method_name(plan->split())
          << " order="
          << (plan->order() == ComboOrder::kFusedPerTile ? "fused"
                                                         : "separate")
          << " c=" << (cp != nullptr);
    }
  }
  // Every rung of the emulation ladder, as plan_scheme builds it.
  for (std::size_t r = 0; r < core::kSchemeCount; ++r) {
    const auto scheme = static_cast<core::SchemeId>(r);
    const auto plan = ctx.plan_scheme(scheme, s.m, s.n, s.k);
    for (const Matrix* cp : {static_cast<const Matrix*>(nullptr), &c}) {
      EXPECT_TRUE(bitwise_equal(run_packed(*plan, a, b, cp),
                                verify::reference_execute(*plan, a, b, cp)))
          << "shape " << s.m << "x" << s.n << "x" << s.k
          << " scheme=" << core::scheme_name(scheme)
          << " c=" << (cp != nullptr);
    }
  }
}

TEST_P(PackedEngineTest, ThreeSplitBitIdentical) {
  const Shape s = GetParam();
  const Matrix a = random_matrix(s.m, s.k, -1, 1, 4000 + s.m);
  const Matrix b = random_matrix(s.k, s.n, -1, 1, 5000 + s.n);
  const Matrix c = random_matrix(s.m, s.n, -1, 1, 6000 + s.k);
  const auto plan = default_context().plan_scheme(core::SchemeId::kRecovery3,
                                                  s.m, s.n, s.k);
  EXPECT_TRUE(bitwise_equal(run_packed(*plan, a, b, &c),
                            verify::reference_execute(*plan, a, b, &c)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackedEngineTest, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<Shape>& shape) {
      return std::to_string(shape.param.m) + "x" +
             std::to_string(shape.param.n) + "x" +
             std::to_string(shape.param.k);
    });

TEST(PackedEngine, EgemmMultiplyUsesPackedByDefault) {
  const Matrix a = random_matrix(40, 24, -1, 1, 7);
  const Matrix b = random_matrix(24, 56, -1, 1, 8);
  EXPECT_TRUE(bitwise_equal(
      egemm_multiply(a, b),
      verify::reference_execute(*egemm_plan(a, b), a, b, nullptr)));
}

TEST(PackedEngine, WideValueRangeStaysBitIdentical) {
  // Values spanning many binades (plus exact zeros) exercise the rounding
  // and subnormal paths of the batched split as well as -0/+0 handling in
  // the padded lanes.
  Matrix a = random_matrix(37, 29, -1024.0f, 1024.0f, 11);
  Matrix b = random_matrix(29, 41, -1e-6f, 1e-6f, 12);
  a.at(0, 0) = 0.0f;
  a.at(1, 1) = -0.0f;
  b.at(0, 0) = -0.0f;
  EXPECT_TRUE(bitwise_equal(
      egemm_multiply(a, b),
      verify::reference_execute(*egemm_plan(a, b), a, b, nullptr)));
}

TEST(PackedEngine, SpecialValuesStayBitIdentical) {
  // NaN/Inf/signed-zero/denormal inputs: the engine and the oracle must
  // produce the same bits, including the canonical NaN the modeled
  // hardware emits (payload-propagation differences between scalar and
  // vector x86 code are exactly what the canonicalizing store erases).
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::nanf("");
  Matrix a = random_matrix(21, 19, -2, 2, 31);
  Matrix b = random_matrix(19, 23, -2, 2, 32);
  Matrix c = random_matrix(21, 23, -2, 2, 33);
  a.at(0, 0) = kNan;
  a.at(1, 2) = kInf;
  a.at(2, 4) = -kInf;
  a.at(3, 6) = 0x1.0p-140f;  // binary32 denormal
  a.at(4, 8) = -0.0f;
  a.at(5, 10) = 65520.0f;  // splits to an infinite hi plane
  b.at(0, 1) = kNan;
  b.at(2, 3) = kInf;
  b.at(4, 5) = 0.0f;  // meets Inf rows: 0 * Inf = NaN inside the dot
  b.at(6, 7) = 0x1.0p-149f;
  c.at(0, 5) = kNan;
  c.at(1, 6) = -kInf;

  for (const Matrix* cp :
       {static_cast<const Matrix*>(nullptr), static_cast<const Matrix*>(&c)}) {
    const Matrix packed = egemm_multiply(a, b, cp);
    const Matrix scalar =
        verify::reference_execute(*egemm_plan(a, b), a, b, cp);
    EXPECT_TRUE(bitwise_equal(packed, scalar)) << "c=" << (cp != nullptr);
    // And the NaNs that do appear are canonical (positive quiet NaN).
    for (const float v : packed.data()) {
      if (std::isnan(v)) {
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        EXPECT_EQ(bits, 0x7fc00000u);
      }
    }
  }
}

TEST(PackedEngine, EmptyShapesAgreeAndHaveTheRightSize) {
  // m*n*k = 0: every combination of an empty extent must work on the
  // engine and the oracle and agree bitwise (k = 0 means D is a copy of C).
  for (const auto [m, n, k] :
       {std::array<std::size_t, 3>{0, 4, 3}, std::array<std::size_t, 3>{4, 0, 3},
        std::array<std::size_t, 3>{4, 3, 0}, std::array<std::size_t, 3>{0, 0, 0}}) {
    const Matrix a = random_matrix(m, k, -1, 1, 41);
    const Matrix b = random_matrix(k, n, -1, 1, 42);
    const Matrix c = random_matrix(m, n, -1, 1, 43);
    const Matrix packed = egemm_multiply(a, b, &c);
    const Matrix scalar =
        verify::reference_execute(*egemm_plan(a, b), a, b, &c);
    EXPECT_EQ(packed.rows(), m);
    EXPECT_EQ(packed.cols(), n);
    EXPECT_TRUE(bitwise_equal(packed, scalar))
        << m << "x" << n << "x" << k;
    if (k == 0 && m > 0 && n > 0) {
      EXPECT_TRUE(bitwise_equal(packed, c));  // D = C exactly
    }
  }
}

/// Restores auto-resolution (which still honors EGEMM_FORCE_ISA) when a
/// test that called force_isa exits.
struct IsaGuard {
  IsaGuard() = default;
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
  ~IsaGuard() { simd::reset_isa(); }
};

TEST(PackedEngine, PrepChunkingKeepsBitsPooledAndNested) {
  // The split is element-wise, so no cut of the prep may move a bit. A
  // pooled execute splits each region's A rows and B columns in its own
  // task; one single item above kRegionMaxWork fills each operand whole in
  // its own pool pass over that operand's fill units (16-lane panels for
  // lane rows, single k rows for k rows). The first two shapes have ragged
  // tails -- m and n off every multiple of 16, odd k; the next two are the
  // smallest pooled small-stream classes (m*n*k = 2^18); the last is
  // ragged and above kRegionMaxWork. Each runs with A and B as given, A
  // transposed and B transposed, so each side is cut by both units. D
  // must match the oracle alone (the last shape filled whole), in one
  // grouped execute (as regions), and nested inside a pool chunk (every
  // pass inline), under every ISA tier.
  const IsaGuard guard;
  const Shape shapes[] = {{901, 13, 131},
                          {13, 61, 1501},
                          {64, 64, 64},
                          {32, 32, 256},
                          {331, 257, 67}};
  static_assert(331 * 257 * 67 > kRegionMaxWork);
  constexpr std::size_t kItems = std::size(shapes);
  for (const core::SchemeId scheme :
       {core::SchemeId::kRound2, core::SchemeId::kRecovery3}) {
    std::vector<Matrix> a, b, at, bt, c;
    std::vector<std::shared_ptr<const GemmPlan>> plans;
    for (std::size_t i = 0; i < kItems; ++i) {
      const Shape s = shapes[i];
      const auto seed = static_cast<unsigned>(900 + 10 * i);
      a.push_back(random_matrix(s.m, s.k, -1, 1, seed));
      b.push_back(random_matrix(s.k, s.n, -1, 1, seed + 1));
      c.push_back(random_matrix(s.m, s.n, -1, 1, seed + 2));
      at.push_back(transpose(a.back()));
      bt.push_back(transpose(b.back()));
      plans.push_back(default_context().plan_scheme(scheme, s.m, s.n, s.k));
      if (obs::kEnabled) {
        // One split call per operand would be one cut; these shapes' preps
        // are cut into more.
        obs::Counter& splits = obs::registry().counter("split.calls");
        const std::uint64_t before = splits.value();
        static_cast<void>(run_packed(*plans[i], a[i], b[i], nullptr));
        EXPECT_GT(splits.value() - before, 2u)
            << core::scheme_name(scheme) << " shape " << i;
      }
    }
    for (const bool with_c : {false, true}) {
      std::vector<Matrix> expect;
      for (std::size_t i = 0; i < kItems; ++i) {
        expect.push_back(verify::reference_execute(
            *plans[i], a[i], b[i], with_c ? &c[i] : nullptr));
      }
      for (int level = 0; level < simd::kIsaLevelCount; ++level) {
        if (!simd::isa_available(static_cast<simd::IsaLevel>(level))) {
          continue;
        }
        const char* isa = simd::isa_name(
            simd::force_isa(static_cast<simd::IsaLevel>(level)));
        for (const int way : {0, 1, 2}) {
          // Each shape alone, then all as one grouped execute.
          const auto run_all = [&] {
            std::vector<Matrix> out(2 * kItems);
            std::vector<GroupedGemm> items;
            for (std::size_t i = 0; i < kItems; ++i) {
              const Operand ai =
                  way == 1 ? Operand(at[i], Transpose::kTranspose) : a[i];
              const Operand bi =
                  way == 2 ? Operand(bt[i], Transpose::kTranspose) : b[i];
              const Matrix* ci = with_c ? &c[i] : nullptr;
              plans[i]->execute(default_context(), ai, bi, ci, out[i]);
              items.push_back({plans[i], ai, bi, ci, &out[kItems + i]});
            }
            default_context().execute_grouped(items);
            return out;
          };
          const std::vector<Matrix> direct = run_all();
          std::vector<Matrix> nested;
          util::global_pool().parallel_for(
              1, [&](std::size_t, std::size_t) { nested = run_all(); });
          for (std::size_t j = 0; j < direct.size(); ++j) {
            const std::string where =
                std::string(isa) + " " + core::scheme_name(scheme) +
                (with_c ? " +C" : "") + " way " + std::to_string(way) +
                " output " + std::to_string(j);
            EXPECT_TRUE(bitwise_equal(direct[j], expect[j % kItems])) << where;
            EXPECT_TRUE(bitwise_equal(nested[j], expect[j % kItems]))
                << "nested " << where;
          }
        }
      }
    }
  }
}

TEST(PackedEngine, RegionCutsKeepBits) {
  // A region splits the A rows and B columns it reads into its own packs
  // and multiplies them there, unless the item has their whole pack; every
  // cut must give the oracle's bits. The shapes are ragged (m, n off every
  // multiple of 16, odd k), 64^3, or above kRegionMaxWork (300 x 260 x 70:
  // on the rule's grid it fills its packs whole and runs as tile blocks),
  // each on the cut rule's grid and on forced 1 x T, T x 1 and 2 x 2 grids
  // (clipped to the output's blocks), with and without C, with A or B
  // read transposed or passed as a kept pack, or both kept, on a two- and
  // a three-plane rung, under every ISA tier.
  const IsaGuard guard;
  const std::size_t threads = util::global_pool().size();
  const Shape shapes[] = {{33, 47, 129},
                          {200, 17, 64},
                          {17, 200, 300},
                          {64, 64, 64},
                          {300, 260, 70}};
  static_assert(300 * 260 * 70 > kRegionMaxWork);
  const std::optional<RegionGrid> grids[] = {
      std::nullopt, RegionGrid{1, threads}, RegionGrid{threads, 1},
      RegionGrid{2, 2}};
  for (const core::SchemeId scheme :
       {core::SchemeId::kRound2, core::SchemeId::kRecovery3}) {
    for (const Shape s : shapes) {
      GemmContext ctx;
      const auto plan = ctx.plan_scheme(scheme, s.m, s.n, s.k);
      const Matrix a = random_matrix(s.m, s.k, -1, 1, 960);
      const Matrix b = random_matrix(s.k, s.n, -1, 1, 961);
      const Matrix c = random_matrix(s.m, s.n, -1, 1, 962);
      const Matrix at = transpose(a);
      const Matrix bt = transpose(b);
      KeptPack kept_a;
      KeptPack kept_b;
      plan->keep(ctx, Side::kA, a, kept_a);
      plan->keep(ctx, Side::kB, b, kept_b);
      const std::pair<Operand, Operand> ways[] = {
          {a, b},
          {{at, Transpose::kTranspose}, b},
          {a, {bt, Transpose::kTranspose}},
          {kept_a, b},
          {a, kept_b},
          {kept_a, kept_b}};
      for (const Matrix* cp : {static_cast<const Matrix*>(nullptr), &c}) {
        const Matrix want = verify::reference_execute(*plan, a, b, cp);
        for (int level = 0; level < simd::kIsaLevelCount; ++level) {
          if (!simd::isa_available(static_cast<simd::IsaLevel>(level))) {
            continue;
          }
          const char* isa = simd::isa_name(
              simd::force_isa(static_cast<simd::IsaLevel>(level)));
          for (const auto& grid : grids) {
            for (std::size_t w = 0; w < std::size(ways); ++w) {
              Matrix d;
              if (grid) {
                execute_on_grid(ctx, *plan, ways[w].first, ways[w].second,
                                cp, d, *grid);
              } else {
                plan->execute(ctx, ways[w].first, ways[w].second, cp, d);
              }
              EXPECT_TRUE(bitwise_equal(d, want))
                  << s.m << "x" << s.n << "x" << s.k << " "
                  << core::scheme_name(scheme) << " " << isa << " grid "
                  << (grid ? std::to_string(grid->rows) + "x" +
                                 std::to_string(grid->cols)
                           : std::string("rule"))
                  << " way " << w << (cp != nullptr ? " +C" : "");
            }
          }
        }
      }
    }
  }

  // One grouped batch mixing an inline-size item, a pooled-size one, one
  // above kRegionMaxWork and a direct one: three emulated items share the
  // pool, so the larger two get more than one region each. The batch must
  // give the loop of singles' bits, where the large item filled its packs
  // whole.
  const Shape mixed[] = {{33, 47, 129}, {160, 90, 70}, {300, 260, 70}};
  static_assert(33 * 47 * 129 < kSmallGemmInlineThreshold);
  static_assert(160 * 90 * 70 > kSmallGemmInlineThreshold &&
                160 * 90 * 70 <= kRegionMaxWork);
  static_assert(300 * 260 * 70 > kRegionMaxWork);
  GemmContext ctx;
  std::vector<Matrix> a, b, c;
  std::vector<std::shared_ptr<const GemmPlan>> plans;
  for (std::size_t i = 0; i <= std::size(mixed); ++i) {
    const Shape s = i < std::size(mixed) ? mixed[i] : Shape{40, 30, 20};
    const auto seed = static_cast<unsigned>(970 + 3 * i);
    a.push_back(random_matrix(s.m, s.k, -1, 1, seed));
    b.push_back(random_matrix(s.k, s.n, -1, 1, seed + 1));
    c.push_back(random_matrix(s.m, s.n, -1, 1, seed + 2));
  }
  for (const core::SchemeId scheme :
       {core::SchemeId::kRound2, core::SchemeId::kRecovery3}) {
    plans.clear();
    for (const Shape s : mixed) {
      plans.push_back(ctx.plan_scheme(scheme, s.m, s.n, s.k));
    }
    plans.push_back(ctx.plan(Backend::kCublasFp32, 40, 30, 20));
    for (int level = 0; level < simd::kIsaLevelCount; ++level) {
      if (!simd::isa_available(static_cast<simd::IsaLevel>(level))) continue;
      const char* isa =
          simd::isa_name(simd::force_isa(static_cast<simd::IsaLevel>(level)));
      for (const bool with_c : {false, true}) {
        std::vector<Matrix> singles(plans.size());
        std::vector<Matrix> grouped(plans.size());
        std::vector<GroupedGemm> items;
        for (std::size_t i = 0; i < plans.size(); ++i) {
          const Matrix* ci = with_c ? &c[i] : nullptr;
          plans[i]->execute(ctx, a[i], b[i], ci, singles[i]);
          items.push_back({plans[i], &a[i], &b[i], ci, &grouped[i]});
        }
        ctx.execute_grouped(items);
        for (std::size_t i = 0; i < plans.size(); ++i) {
          EXPECT_TRUE(bitwise_equal(grouped[i], singles[i]))
              << core::scheme_name(scheme) << " " << isa << " item " << i
              << (with_c ? " +C" : "");
        }
      }
    }
  }
}

TEST(PackedEngine, TileBlocksCoverEachTileOnceAndKeepTheirShapes) {
  // The block rule cuts an item filled whole for balance: every tile lies
  // in exactly one block, an output with no tiles has no blocks, and
  // single-row and single-column grids are covered whole. At T = 4 it
  // gives the blocks that 1024^3 and the apps' GEMMs run on, numbered
  // row-major.
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
    for (const auto& [rows, cols] :
         {std::pair<std::size_t, std::size_t>{23, 17}, {1, 40}, {40, 1},
          {1, 1}, {64, 64}, {4, 256}, {512, 2}, {8, 8}}) {
      std::vector<int> hits(rows * cols, 0);
      const TileBlocks blocks = tile_blocks(rows, cols, threads);
      for (std::size_t i = 0; i < blocks.count; ++i) {
        const TileBlock block = blocks.block(i);
        ASSERT_LT(block.rb0, block.rb1);
        ASSERT_LE(block.rb1, rows);
        ASSERT_LT(block.cb0, block.cb1);
        ASSERT_LE(block.cb1, cols);
        for (std::size_t r = block.rb0; r < block.rb1; ++r) {
          for (std::size_t c = block.cb0; c < block.cb1; ++c) {
            ++hits[r * cols + c];
          }
        }
      }
      for (const int h : hits) {
        EXPECT_EQ(h, 1) << rows << "x" << cols << " tiles, T = " << threads;
      }
    }
  }
  EXPECT_EQ(tile_blocks(0, 5, 4).count, 0u);
  EXPECT_EQ(tile_blocks(5, 0, 4).count, 0u);

  struct Pin {
    std::size_t m, n, rows, cols, count;
  };
  const Pin pins[] = {{1024, 1024, 10, 12, 42},  // large-square
                      {64, 4096, 4, 8, 32},      // a kNN query panel
                      {8192, 32, 16, 2, 32},     // kMeans
                      {128, 128, 1, 2, 32}};     // PCA
  for (const Pin& pin : pins) {
    const TileBlocks blocks = tile_blocks(pin.m / 16, pin.n / 16, 4);
    EXPECT_EQ(blocks.count, pin.count) << pin.m << "x" << pin.n;
    EXPECT_EQ(blocks.rows, pin.rows) << pin.m << "x" << pin.n;
    EXPECT_EQ(blocks.cols, pin.cols) << pin.m << "x" << pin.n;
    // Row-major: the second block sits beside the first unless the first
    // spans every column.
    const bool one_across = pin.cols == pin.n / 16;
    EXPECT_EQ(blocks.block(1).rb0, one_across ? pin.rows : 0);
    EXPECT_EQ(blocks.block(1).cb0, one_across ? 0 : pin.cols);
  }
}

/// The one panel layout, from planes[p] (lanes x k): element (l, kk) at
/// [l / 16 * 16 * k + kk * 16 + l % 16], lanes past the extent +0.
std::vector<std::vector<float>> panel_layout(std::span<const Matrix> planes) {
  const std::size_t lanes = planes[0].rows();
  const std::size_t k = planes[0].cols();
  const std::size_t padded = (lanes + kPackTile - 1) / kPackTile * kPackTile;
  std::vector<std::vector<float>> out;
  for (const Matrix& plane : planes) {
    std::vector<float>& layout = out.emplace_back(padded * k, 0.0f);
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        layout[l / kPackTile * kPackTile * k + kk * kPackTile +
               l % kPackTile] = plane.at(l, kk);
      }
    }
  }
  return out;
}

/// True when every plane of `pack` holds `layout`'s bits.
bool holds_layout(const PackedPlanes& pack,
                  const std::vector<std::vector<float>>& layout) {
  if (pack.planes() != layout.size()) return false;
  for (std::size_t p = 0; p < layout.size(); ++p) {
    if (std::memcmp(pack.block(p, 0), layout[p].data(),
                    layout[p].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(PackedPlanes, BothFillsPackEachPanelKMajor) {
  // One layout, two fills: lane rows (lanes x k) go through the
  // transposing fill and k rows (k x lanes) through the copying fill, and
  // both land on the same panels, over stale NaNs in every lane, padding
  // included (it must come out +0), cut on the edges each fill allows:
  // 16-lane panels for lane rows, any row for k rows. Lanes up to 40 fill
  // the copying fill's strip with whole rows; 1030 cuts each row into
  // column runs past kPackStrip. k = 63 and 65 straddle the transposing
  // fill's 64-column strip, 1025 ends on a one-column strip.
  const std::size_t kLanes[] = {1, 15, 17, 40, 1030};
  const std::size_t kKs[] = {1, 63, 65, 1025};
  // An elementwise three-plane "split" with exact, distinct planes that,
  // like the real splits, takes +0 to +0.
  const auto split = [](const float* in, std::size_t count,
                        float* const* out) {
    for (std::size_t i = 0; i < count; ++i) {
      out[0][i] = in[i];
      out[1][i] = 0.0f - in[i];
      out[2][i] = 0.5f * in[i];
    }
  };
  for (const std::size_t lanes : kLanes) {
    for (const std::size_t k : kKs) {
      const Matrix x = random_matrix(lanes, k, -1, 1, 700);  // lanes x k
      std::vector<Matrix> planes(kMaxPackPlanes, Matrix(lanes, k));
      for (std::size_t i = 0; i < x.data().size(); ++i) {
        float* out[kMaxPackPlanes] = {&planes[0].data()[i],
                                      &planes[1].data()[i],
                                      &planes[2].data()[i]};
        split(&x.data()[i], 1, out);
      }
      const auto want = panel_layout(planes);
      const std::size_t padded =
          (lanes + kPackTile - 1) / kPackTile * kPackTile;
      for (const PackSource source :
           {PackSource::kLaneRows, PackSource::kKRows}) {
        const bool lane_rows = source == PackSource::kLaneRows;
        const std::string where = std::string(lane_rows ? "lane" : "k") +
                                  " rows, lanes=" + std::to_string(lanes) +
                                  " k=" + std::to_string(k);
        const Matrix src = lane_rows ? x : transpose(x);
        std::vector<Matrix> src_planes;
        for (const Matrix& plane : planes) {
          src_planes.push_back(lane_rows ? plane : transpose(plane));
        }
        PackedPlanes whole;
        whole.assign(src_planes, source);
        EXPECT_TRUE(holds_layout(whole, want)) << where << " (assign)";

        // Stale NaNs in every lane, padding included: a pack of the padded
        // extent, shrunk in place.
        const Matrix nan_plane = [&] {
          Matrix m(padded, k);
          m.fill(std::numeric_limits<float>::quiet_NaN());
          return lane_rows ? m : transpose(m);
        }();
        PackedPlanes cut;
        cut.assign(std::vector<Matrix>(kMaxPackPlanes, nan_plane), source);
        EXPECT_FALSE(cut.resize(kMaxPackPlanes, lanes, k)) << where;
        const std::size_t rows = lane_rows ? lanes : k;
        const std::vector<std::size_t> edges =
            lane_rows ? std::vector<std::size_t>{16, 48}
                      : std::vector<std::size_t>{1, 37, 64};
        std::size_t r0 = 0;
        for (const std::size_t edge : edges) {
          const std::size_t r1 = std::min(rows, edge);
          cut.fill_rows(source, r0, r1, src.data().data(), src.cols(), split);
          r0 = r1;
        }
        cut.fill_rows(source, r0, rows, src.data().data(), src.cols(), split);
        EXPECT_TRUE(holds_layout(cut, want)) << where << " (cut fill)";
      }
    }
  }
}

TEST(PackedPlanes, KeptPacksMatchTheLayoutForBothRolesAndOrientations) {
  // GemmPlan::keep fills A (m lanes) or B (n lanes) from a matrix read as
  // given or as its transpose, through the plan's own split, in pooled
  // prep chunks: every combination must hold the one layout of the
  // operand's planes. 901 lanes and k = 131 cut into several chunks.
  for (const auto& [lanes, k] : {std::pair<std::size_t, std::size_t>{37, 19},
                                std::pair<std::size_t, std::size_t>{901, 131},
                                std::pair<std::size_t, std::size_t>{13, 1501}}) {
    const Matrix x = random_matrix(lanes, k, -4, 4, 710);  // lanes x k
    for (const core::SchemeId scheme :
         {core::SchemeId::kRound2, core::SchemeId::kRecovery3}) {
      const core::SchemeDescriptor& rung = core::scheme(scheme);
      std::vector<Matrix> planes(static_cast<std::size_t>(rung.planes),
                                 Matrix(lanes, k));
      float* out[kMaxPackPlanes] = {};
      for (std::size_t p = 0; p < planes.size(); ++p) {
        out[p] = planes[p].data().data();
      }
      core::split_planes_f32(x.data(), {out, planes.size()}, rung.split);
      const auto want = panel_layout(planes);
      for (const Side side : {Side::kA, Side::kB}) {
        // A = x (lanes = m), or B = x^T (lanes = n).
        const auto plan =
            side == Side::kA
                ? default_context().plan_scheme(scheme, lanes, 16, k)
                : default_context().plan_scheme(scheme, 16, lanes, k);
        const Matrix xt = transpose(x);
        const bool a = side == Side::kA;
        for (const Operand& source :
             {Operand(a ? x : xt), Operand(a ? xt : x, Transpose::kTranspose)}) {
          KeptPack pack;
          plan->keep(default_context(), side, source, pack);
          EXPECT_TRUE(holds_layout(pack.pack(), want))
              << (a ? "A" : "B")
              << (source.trans() == Transpose::kTranspose ? " transposed"
                                                          : " as given")
              << " lanes=" << lanes << " k=" << k << " "
              << core::scheme_name(scheme);
          EXPECT_EQ(pack.split(), rung.split);
        }
      }
    }
  }
}

TEST(PackedEngine, OperandOrientationsAndKeptPacksGiveTheFreshBits) {
  // Every way in for A and B -- as given, transposed (read in place by the
  // other fill), or a kept pack filled either way -- must give the bits of
  // the plain execute, serial (37 x 29 x 41) and pooled (200 x 150 x 130),
  // on a two- and a three-plane rung, with and without C.
  for (const Shape s : {Shape{37, 41, 29}, Shape{200, 150, 130}}) {
    const Matrix a = random_matrix(s.m, s.k, -1, 1, 720);
    const Matrix b = random_matrix(s.k, s.n, -1, 1, 721);
    const Matrix c = random_matrix(s.m, s.n, -1, 1, 722);
    const Matrix at = transpose(a);
    const Matrix bt = transpose(b);
    for (const core::SchemeId scheme :
         {core::SchemeId::kRound2, core::SchemeId::kRecovery3}) {
      GemmContext& ctx = default_context();
      const auto plan = ctx.plan_scheme(scheme, s.m, s.n, s.k);
      KeptPack kept_a;
      KeptPack kept_at;
      KeptPack kept_b;
      KeptPack kept_bt;
      plan->keep(ctx, Side::kA, a, kept_a);
      plan->keep(ctx, Side::kA, {at, Transpose::kTranspose}, kept_at);
      plan->keep(ctx, Side::kB, b, kept_b);
      plan->keep(ctx, Side::kB, {bt, Transpose::kTranspose}, kept_bt);
      const Operand a_ways[] = {a, {at, Transpose::kTranspose}, kept_a,
                                kept_at};
      const Operand b_ways[] = {b, {bt, Transpose::kTranspose}, kept_b,
                                kept_bt};
      for (const Matrix* cp : {static_cast<const Matrix*>(nullptr), &c}) {
        const Matrix want = run_packed(*plan, a, b, cp);
        for (std::size_t i = 0; i < std::size(a_ways); ++i) {
          for (std::size_t j = 0; j < std::size(b_ways); ++j) {
            Matrix d;
            plan->execute(ctx, a_ways[i], b_ways[j], cp, d);
            EXPECT_TRUE(bitwise_equal(d, want))
                << s.m << "x" << s.n << "x" << s.k << " "
                << core::scheme_name(scheme) << " A way " << i << " B way "
                << j << " c=" << (cp != nullptr);
          }
        }
      }
    }
  }
}

TEST(PackedEngine, MismatchedKeptPackIsRejectedBeforeAnythingRuns) {
  // A kept pack whose extents, plane count or split differ from the plan,
  // one never filled, or one handed to a direct plan is rejected before
  // anything is written: D, the counters and the call records stay as
  // they were, in a single execute and in a grouped one whose other item
  // fits.
  constexpr std::size_t kM = 40, kN = 24, kK = 33;
  constexpr float kSentinel = -7.25f;
  GemmContext ctx;
  const Matrix a = random_matrix(kM, kK, -1, 1, 730);
  const Matrix b = random_matrix(kK, kN, -1, 1, 731);
  const auto plan = ctx.plan_scheme(core::SchemeId::kRound2, kM, kN, kK);
  const Matrix longer = random_matrix(kM, kK + 1, -1, 1, 732);
  std::vector<std::pair<std::string, KeptPack>> bad(4);
  bad[0].first = "extents";
  ctx.plan_scheme(core::SchemeId::kRound2, kM, kN, kK + 1)
      ->keep(ctx, Side::kA, longer, bad[0].second);
  bad[1].first = "planes";
  ctx.plan_scheme(core::SchemeId::kRecovery3, kM, kN, kK)
      ->keep(ctx, Side::kA, a, bad[1].second);
  bad[2].first = "split";
  ctx.plan_scheme(core::SchemeId::kTruncate2, kM, kN, kK)
      ->keep(ctx, Side::kA, a, bad[2].second);
  ASSERT_EQ(bad[2].second.planes(), static_cast<std::size_t>(plan->planes()));
  bad[3].first = "never filled";
  KeptPack fits;
  plan->keep(ctx, Side::kA, a, fits);
  const auto direct = ctx.plan(Backend::kCublasFp32, kM, kN, kK);

  const auto count = [](const char* name) {
    return obs::registry().counter(name).value();
  };
  const auto sentinel_d = [&] {
    Matrix d(kM, kN);
    d.fill(kSentinel);
    return d;
  };
  const auto untouched = [&](const Matrix& d) {
    return d.rows() == kM && d.cols() == kN &&
           std::ranges::all_of(d.data(),
                               [&](float v) { return v == kSentinel; });
  };
  const std::uint64_t calls = count("egemm.calls");
  const std::uint64_t tiles = count("egemm.tiles");
  obs::clear_call_records();
  for (const auto& [what, pack] : bad) {
    Matrix d = sentinel_d();
    EXPECT_THROW(plan->execute(ctx, pack, b, nullptr, d),
                 std::invalid_argument)
        << what;
    EXPECT_TRUE(untouched(d)) << what;
    Matrix first = sentinel_d();
    Matrix second = sentinel_d();
    const GroupedGemm items[] = {{plan, &a, &b, nullptr, &first},
                                 {plan, pack, &b, nullptr, &second}};
    EXPECT_THROW(ctx.execute_grouped(items), std::invalid_argument) << what;
    EXPECT_TRUE(untouched(first) && untouched(second)) << what;
  }
  Matrix d = sentinel_d();
  EXPECT_THROW(direct->execute(ctx, fits, b, nullptr, d),
               std::invalid_argument);
  EXPECT_TRUE(untouched(d));
  // A direct plan keeps nothing: keep hands back the matrix itself.
  KeptPack unfilled;
  EXPECT_EQ(direct->keep(ctx, Side::kA, a, unfilled).matrix(), &a);
  EXPECT_EQ(unfilled.planes(), 0u);
  EXPECT_EQ(count("egemm.calls"), calls);
  EXPECT_EQ(count("egemm.tiles"), tiles);
  EXPECT_TRUE(obs::drain_call_records().empty());
  // The pack that fits still runs.
  plan->execute(ctx, fits, b, nullptr, d);
  EXPECT_TRUE(bitwise_equal(d, run_packed(*plan, a, b, nullptr)));
}

TEST(PackedEngine, KeptPackOutlivesPlanEvictionAndWorkspaceRegrow) {
  // A kept pack owns its planes: evicting the plan that filled it and
  // regrowing the context's workspaces with a larger call leave it giving
  // the fresh bits, through the re-planned plan.
  constexpr std::size_t kM = 96, kN = 80, kK = 70;
  GemmContext ctx(1);
  const Matrix a = random_matrix(kM, kK, -1, 1, 740);
  const Matrix b = random_matrix(kK, kN, -1, 1, 741);
  KeptPack kept;
  Matrix fresh;
  {
    const auto plan = ctx.plan(Backend::kEgemmTC, kM, kN, kK);
    plan->keep(ctx, Side::kB, b, kept);
    plan->execute(ctx, a, b, nullptr, fresh);
  }
  static_cast<void>(ctx.plan(Backend::kEgemmTC, 8, 8, 8));  // evicts it
  ASSERT_EQ(ctx.plan_evictions(), 1u);
  const Matrix big_a = random_matrix(300, 200, -1, 1, 742);
  const Matrix big_b = random_matrix(200, 260, -1, 1, 743);
  Matrix big;
  ctx.plan(Backend::kEgemmTC, 300, 260, 200)
      ->execute(ctx, big_a, big_b, nullptr, big);  // regrows a workspace
  const auto replanned = ctx.plan(Backend::kEgemmTC, kM, kN, kK);
  Matrix d;
  replanned->execute(ctx, a, kept, nullptr, d);
  EXPECT_TRUE(bitwise_equal(d, fresh));
}

TEST(PackedEngine, ConcurrentExecutesShareOneKeptPack) {
  // Executes only read a kept pack: callers racing through one pack each
  // get the single-threaded bits, pooled and inline.
  constexpr std::size_t kM = 130, kN = 120, kK = 90;
  GemmContext ctx;
  const auto plan = ctx.plan(Backend::kEgemmTC, kM, kN, kK);
  const Matrix b = random_matrix(kK, kN, -1, 1, 750);
  KeptPack kept;
  plan->keep(ctx, Side::kB, b, kept);
  std::vector<Matrix> a;
  std::vector<Matrix> want;
  for (unsigned i = 0; i < 3; ++i) {
    a.push_back(random_matrix(kM, kK, -1, 1, 751 + i));
    want.push_back(run_packed(*plan, a.back(), b, nullptr));
  }
  bool same[3] = {true, true, true};
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 3; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        for (std::size_t i = 0; i < a.size(); ++i) {
          const std::size_t j = (i + t) % a.size();
          Matrix d;
          plan->execute(ctx, a[j], kept, nullptr, d);
          same[t] = same[t] && bitwise_equal(d, want[j]);
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_TRUE(same[0] && same[1] && same[2]);
}

TEST(PackedEngine, SplitsEachInputExactlyOncePerCall) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  // The plane cache is the point: one split per input element per GEMM
  // call, no re-splitting anywhere downstream, read off the registry's
  // split.elements counter. Debug builds also check each execute's own
  // count in its own ItemRun (an EGEMM_ENSURES), so there the cases below
  // run that exact check too, concurrent executes included.
  const obs::Counter& split = obs::registry().counter("split.elements");
  const Matrix a = random_matrix(48, 33, -1, 1, 21);
  const Matrix b = random_matrix(33, 50, -1, 1, 22);
  const std::uint64_t before = split.value();
  (void)egemm_multiply(a, b);
  EXPECT_EQ(split.value() - before,
            a.data().size() + b.data().size());

  const auto plan3 = default_context().plan_scheme(
      core::SchemeId::kRecovery3, a.rows(), b.cols(), a.cols());
  const std::uint64_t before3 = split.value();
  (void)run_packed(*plan3, a, b, nullptr);
  EXPECT_EQ(split.value() - before3,
            a.data().size() + b.data().size());

  // A kept pack is split when it is filled; an execute that reads it
  // splits only the other operand.
  KeptPack kept_a;
  const std::uint64_t before_keep = split.value();
  plan3->keep(default_context(), Side::kA, a, kept_a);
  EXPECT_EQ(split.value() - before_keep, a.data().size());
  const std::uint64_t before_kept = split.value();
  Matrix d;
  plan3->execute(default_context(), kept_a, b, nullptr, d);
  EXPECT_EQ(split.value() - before_kept, b.data().size());

  // kMeans splits its points once per call, across every Lloyd iteration,
  // and its centroids (read transposed: 20 lanes, padded to 32) once per
  // iteration.
  const apps::PointCloud cloud =
      apps::gaussian_mixture(300, 24, 20, 0.2, 23);
  apps::KMeansOptions opts;
  opts.clusters = 20;
  opts.max_iterations = 6;
  opts.tolerance = 0.0;
  const std::uint64_t before_kmeans = split.value();
  const apps::KMeansResult result = apps::kmeans(cloud.points, opts);
  ASSERT_GT(result.iterations, 1);
  const std::uint64_t padded_points = (300 + 15) / 16 * 16 * 24;
  EXPECT_EQ(split.value() - before_kmeans,
            padded_points + static_cast<std::uint64_t>(result.iterations) *
                                32 * 24);

  // Two executes at once, each checked exactly against its own count. The
  // pair is pooled-size (2^20 multiply-adds, between
  // kSmallGemmInlineThreshold and kRegionMaxWork), so each call runs the
  // cut rule's p x q grid of regions -- whether its regions run on the
  // pool or, when the other call holds it, inline -- and each region
  // splits the A rows and B columns it reads: A's 160 rows (whole panels)
  // once per column range, B's 90 columns once per row range.
  const Matrix a2 = random_matrix(160, 70, -1, 1, 24);
  const Matrix b2 = random_matrix(70, 90, -1, 1, 25);
  const auto plan2 = default_context().plan(Backend::kEgemmTC, 160, 90, 70);
  const RegionGrid grid = region_grid(160, 90, util::global_pool().size());
  const std::uint64_t before_pair = split.value();
  std::thread other([&] {
    for (int i = 0; i < 8; ++i) (void)run_packed(*plan2, a2, b2, nullptr);
  });
  for (int i = 0; i < 8; ++i) (void)run_packed(*plan2, a2, b2, nullptr);
  other.join();
  EXPECT_EQ(split.value() - before_pair,
            16 * (grid.cols * a2.data().size() + grid.rows * b2.data().size()));

  // A single item above kRegionMaxWork splits each input once, into packs
  // every tile shares.
  const Matrix a3 = random_matrix(300, 70, -1, 1, 26);
  const Matrix b3 = random_matrix(70, 260, -1, 1, 27);
  static_assert(300 * 260 * 70 > kRegionMaxWork);
  const std::uint64_t before_shared = split.value();
  (void)egemm_multiply(a3, b3);
  EXPECT_EQ(split.value() - before_shared,
            (300 + 4) * 70 + b3.data().size());  // A's last panel padded

  // A 64-item grouped batch of pooled-size items runs each item as one
  // region, so each input is split once.
  GemmContext ctx;
  const auto plan64 = ctx.plan(Backend::kEgemmTC, 64, 64, 64);
  std::vector<Matrix> as, bs, ds(64);
  std::vector<GroupedGemm> items;
  for (unsigned i = 0; i < 64; ++i) {
    as.push_back(random_matrix(64, 64, -1, 1, 30 + 2 * i));
    bs.push_back(random_matrix(64, 64, -1, 1, 31 + 2 * i));
  }
  for (std::size_t i = 0; i < 64; ++i) {
    items.push_back({plan64, &as[i], &bs[i], nullptr, &ds[i]});
  }
  const std::uint64_t before_grouped = split.value();
  ctx.execute_grouped(items);
  EXPECT_EQ(split.value() - before_grouped,
            64 * std::uint64_t{2} * 64 * 64);
}

}  // namespace
}  // namespace egemm::gemm
