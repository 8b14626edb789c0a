// The packed execution engine's contract (DESIGN.md §10): bit-identical to
// the scalar oracle (verify::reference_execute) across every shape, split
// method, combo order, ladder rung, and C-accumulation variant -- including
// shapes smaller than one tile, odd k, and k = 1, where the padding and
// remainder paths differ most between the engine and the oracle.
#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheme.hpp"
#include "core/split.hpp"
#include "gemm/egemm.hpp"
#include "gemm/plan.hpp"
#include "gemm/prep_rows.hpp"
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
  // A pooled execute cuts each item's prep (the split into the packs) into
  // row-range chunks and runs them all in one pool pass. These shapes
  // prep in several chunks: the first two have ragged tails -- m and n off
  // every multiple of 16, odd k -- the first cut inside A's rows, the
  // second inside B's; the last two are the smallest pooled small-stream
  // classes (m*n*k = 2^18), which must fan out too. D must match the
  // oracle for single and grouped executes, with the chunks on the pool
  // or, nested inside a pool chunk, inline, under every ISA tier.
  const IsaGuard guard;
  const Shape shapes[] = {
      {901, 13, 131}, {13, 61, 1501}, {64, 64, 64}, {32, 32, 256}};
  constexpr std::size_t kItems = std::size(shapes);
  for (int level = 0; level < simd::kIsaLevelCount; ++level) {
    if (!simd::isa_available(static_cast<simd::IsaLevel>(level))) continue;
    const char* isa =
        simd::isa_name(simd::force_isa(static_cast<simd::IsaLevel>(level)));
    for (const core::SchemeId scheme :
         {core::SchemeId::kRound2, core::SchemeId::kRecovery3}) {
      std::vector<Matrix> a, b, c;
      std::vector<std::shared_ptr<const GemmPlan>> plans;
      for (std::size_t i = 0; i < kItems; ++i) {
        const Shape s = shapes[i];
        const auto seed = static_cast<unsigned>(900 + 10 * i);
        a.push_back(random_matrix(s.m, s.k, -1, 1, seed));
        b.push_back(random_matrix(s.k, s.n, -1, 1, seed + 1));
        c.push_back(random_matrix(s.m, s.n, -1, 1, seed + 2));
        plans.push_back(default_context().plan_scheme(scheme, s.m, s.n, s.k));
        if (obs::kEnabled) {
          // One chunk splits A and B once each; these shapes split more.
          obs::Counter& splits = obs::registry().counter("split.calls");
          const std::uint64_t before = splits.value();
          static_cast<void>(run_packed(*plans[i], a[i], b[i], nullptr));
          EXPECT_GT(splits.value() - before, 2u) << isa << " shape " << i;
        }
      }
      for (const bool with_c : {false, true}) {
        std::vector<Matrix> expect;
        for (std::size_t i = 0; i < kItems; ++i) {
          expect.push_back(verify::reference_execute(
              *plans[i], a[i], b[i], with_c ? &c[i] : nullptr));
        }
        // Each shape alone, then all as one grouped execute.
        const auto run_all = [&] {
          std::vector<Matrix> out(2 * kItems);
          std::vector<GroupedGemm> items;
          for (std::size_t i = 0; i < kItems; ++i) {
            const Matrix* ci = with_c ? &c[i] : nullptr;
            plans[i]->execute(default_context(), a[i], b[i], ci, out[i]);
            items.push_back({plans[i], &a[i], &b[i], ci, &out[kItems + i]});
          }
          default_context().execute_grouped(items);
          return out;
        };
        const std::vector<Matrix> direct = run_all();
        std::vector<Matrix> nested;
        util::global_pool().parallel_for(
            1, [&](std::size_t, std::size_t) { nested = run_all(); });
        for (std::size_t j = 0; j < direct.size(); ++j) {
          const std::string where = std::string(isa) + " " +
                                    core::scheme_name(scheme) +
                                    (with_c ? " +C" : "") + " output " +
                                    std::to_string(j);
          EXPECT_TRUE(bitwise_equal(direct[j], expect[j % kItems])) << where;
          EXPECT_TRUE(bitwise_equal(nested[j], expect[j % kItems]))
              << "nested " << where;
        }
      }
    }
  }
}

TEST(PackedPlanesA, FillRowsPacksEachBlockKMajor) {
  // Element (r, kk) of plane p sits at block(p, r / 16)[kk * 16 + r % 16];
  // the last block's lanes past m are zero; and filling by row ranges cut
  // on block edges gives assign()'s bits, over stale contents.
  // k = 63 and 65 straddle a 64-column strip, 1025 ends on a one-column
  // strip.
  const std::size_t kMs[] = {1, 15, 17, 40};
  const std::size_t kKs[] = {1, 63, 65, 1025};
  const std::size_t kEdges[] = {32, 40};
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
  for (const std::size_t m : kMs) {
    for (const std::size_t k : kKs) {
      const std::string where =
          "m=" + std::to_string(m) + " k=" + std::to_string(k);
      const Matrix src = random_matrix(m, k, -1, 1, 700);
      std::vector<Matrix> planes(kMaxPackPlanes, Matrix(m, k));
      for (std::size_t i = 0; i < src.data().size(); ++i) {
        float* out[kMaxPackPlanes] = {&planes[0].data()[i],
                                      &planes[1].data()[i],
                                      &planes[2].data()[i]};
        split(&src.data()[i], 1, out);
      }
      PackedPlanesA whole;
      whole.assign(planes);
      const std::size_t rows = (m + kPackTile - 1) / kPackTile * kPackTile;
      for (std::size_t p = 0; p < planes.size(); ++p) {
        for (std::size_t r = 0; r < rows; ++r) {
          const float* block = whole.block(p, r / kPackTile);
          for (std::size_t kk = 0; kk < k; ++kk) {
            const float want = r < m ? planes[p].at(r, kk) : 0.0f;
            const float got = block[kk * kPackTile + r % kPackTile];
            ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
                << where << " plane " << p << " (" << r << ", " << kk << ")";
          }
        }
      }

      // Stale NaNs in every lane, padding included, then a refill in
      // block-edge row ranges.
      std::vector<Matrix> stale(planes.size(), Matrix(rows, k));
      for (Matrix& plane : stale) {
        plane.fill(std::numeric_limits<float>::quiet_NaN());
      }
      PackedPlanesA cut;
      cut.assign(stale);
      EXPECT_FALSE(cut.resize(planes.size(), m, k)) << where;
      std::size_t r0 = 0;
      for (const std::size_t edge : kEdges) {
        const std::size_t r1 = std::min(m, edge);
        cut.fill_rows(r0, r1, src.data().data(), split);
        r0 = r1;
      }
      for (std::size_t p = 0; p < planes.size(); ++p) {
        EXPECT_EQ(std::memcmp(cut.block(p, 0), whole.block(p, 0),
                              rows * k * sizeof(float)),
                  0)
            << where << " plane " << p;
      }
    }
  }
}

TEST(PackedPlanesA, PrepChunksCutARowsOnBlockEdges) {
  // Pooled prep chunks run concurrently; a k-major A block interleaves 16
  // rows in every line, so each A cut must fall on a block edge or on m.
  // Every chunk holds rows: none is an empty pool task.
  const Shape shapes[] = {{901, 13, 131},   {13, 61, 1501}, {40, 7, 1025},
                          {1024, 1024, 1024}, {17, 64, 256}, {128, 128, 16384},
                          {64, 64, 64},     {1, 1, 1}};
  for (const Shape s : shapes) {
    for (const int planes : {2, 3}) {
      const PrepRows rows(s.m, s.n, s.k, planes);
      const std::string where = std::to_string(s.m) + "x" +
                                std::to_string(s.n) + "x" +
                                std::to_string(s.k) + " planes " +
                                std::to_string(planes);
      EXPECT_EQ(rows.start(0), 0u) << where;
      EXPECT_EQ(rows.start(rows.chunks), s.m + s.k) << where;
      std::size_t a_cuts = 0;
      for (std::size_t j = 1; j <= rows.chunks; ++j) {
        const std::size_t start = rows.start(j);
        EXPECT_LT(rows.start(j - 1), start) << where << " chunk " << j;
        if (start < s.m) {
          ++a_cuts;
          EXPECT_EQ(start % kPackTile, 0u) << where << " chunk " << j;
        }
      }
      if (s.m >= 4 * kPackTile && rows.chunks > 8) {
        EXPECT_GT(a_cuts, 0u) << where;  // A's rows are cut too
      }
    }
  }
}

#ifndef NDEBUG
TEST(PackedEngine, SplitsEachInputExactlyOncePerCall) {
  // The plane cache is the point: one split + widen per input matrix per
  // GEMM call, no re-splitting anywhere downstream.
  const Matrix a = random_matrix(48, 33, -1, 1, 21);
  const Matrix b = random_matrix(33, 50, -1, 1, 22);
  const std::uint64_t before = core::debug_split_elements();
  (void)egemm_multiply(a, b);
  EXPECT_EQ(core::debug_split_elements() - before,
            a.data().size() + b.data().size());

  const auto plan3 = default_context().plan_scheme(
      core::SchemeId::kRecovery3, a.rows(), b.cols(), a.cols());
  const std::uint64_t before3 = core::debug_split_elements();
  (void)run_packed(*plan3, a, b, nullptr);
  EXPECT_EQ(core::debug_split_elements() - before3,
            a.data().size() + b.data().size());
}
#endif

}  // namespace
}  // namespace egemm::gemm
