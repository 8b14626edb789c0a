// Tests for the plan/workspace execution layer (gemm/plan.hpp): cache
// hit/miss accounting, LRU eviction, plan properties (the recipe; options
// that only shape modeled time share a plan), bit-identity of the planned
// path with the one-shot APIs and the scalar oracle
// (verify::reference_execute), caller-owned output and workspace reuse
// (no stale bits survive into a later call; the workspace is the packs
// alone), and the debug allocation guard (a reused plan performs no heap
// allocation on its second execute).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "gemm/gemm_api.hpp"
#include "gemm/plan.hpp"
#include "model/analytic_model.hpp"
#include "model/solver.hpp"
#include "tcsim/gpu_spec.hpp"
#include "util/thread_pool.hpp"
#include "verify/reference_execute.hpp"

namespace egemm::gemm {
namespace {

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data().data(), y.data().data(),
                      x.size() * sizeof(float)) == 0);
}

TEST(GemmPlanCache, HitAndMissAccounting) {
  GemmContext ctx;
  EXPECT_EQ(ctx.plan_hits(), 0u);
  EXPECT_EQ(ctx.plan_misses(), 0u);
  EXPECT_EQ(ctx.cached_plans(), 0u);

  const auto first = ctx.plan(Backend::kEgemmTC, 32, 32, 32);
  EXPECT_EQ(ctx.plan_misses(), 1u);
  EXPECT_EQ(ctx.plan_hits(), 0u);
  EXPECT_EQ(ctx.cached_plans(), 1u);

  const auto second = ctx.plan(Backend::kEgemmTC, 32, 32, 32);
  EXPECT_EQ(ctx.plan_misses(), 1u);
  EXPECT_EQ(ctx.plan_hits(), 1u);
  EXPECT_EQ(first.get(), second.get());  // the cache hands back the same plan
}

TEST(GemmPlanCache, DistinctOptionsAreDistinctPlans) {
  GemmContext ctx;
  const auto round = ctx.plan(Backend::kEgemmTC, 32, 32, 32);
  const auto trunc = ctx.plan_scheme(core::SchemeId::kTruncate2, 32, 32, 32);
  EXPECT_EQ(ctx.plan_misses(), 2u);
  EXPECT_NE(round.get(), trunc.get());
  EXPECT_EQ(round->split(), core::SplitMethod::kRoundSplit);
  EXPECT_EQ(trunc->split(), core::SplitMethod::kTruncateSplit);
}

TEST(GemmPlanCache, LruEvictsTheColdestPlan) {
  GemmContext ctx(2);
  EXPECT_EQ(ctx.plan_capacity(), 2u);
  (void)ctx.plan(Backend::kEgemmTC, 16, 16, 16);   // A
  (void)ctx.plan(Backend::kEgemmTC, 32, 32, 32);   // B
  (void)ctx.plan(Backend::kEgemmTC, 48, 48, 48);   // C evicts A
  EXPECT_EQ(ctx.cached_plans(), 2u);

  (void)ctx.plan(Backend::kEgemmTC, 32, 32, 32);   // B still cached
  EXPECT_EQ(ctx.plan_hits(), 1u);
  (void)ctx.plan(Backend::kEgemmTC, 16, 16, 16);   // A was evicted
  EXPECT_EQ(ctx.plan_misses(), 4u);
  EXPECT_EQ(ctx.cached_plans(), 2u);
}

TEST(GemmPlanCache, EvictedPlanStaysUsableThroughSharedPtr) {
  GemmContext ctx(1);
  const auto plan = ctx.plan(Backend::kEgemmTC, 32, 32, 32);
  (void)ctx.plan(Backend::kEgemmTC, 16, 16, 16);  // evicts the first plan
  const Matrix a = random_matrix(32, 32, -1.0f, 1.0f, 11);
  const Matrix b = random_matrix(32, 32, -1.0f, 1.0f, 12);
  Matrix d;
  plan->execute(ctx, a, b, nullptr, d);  // still valid: shared ownership
  EXPECT_TRUE(bitwise_equal(d, egemm_multiply(a, b)));
}

TEST(GemmPlanExecute, MatchesOneShotAndReferenceBitwise) {
  GemmContext ctx;
  const Matrix a = random_matrix(48, 40, -2.0f, 2.0f, 21);
  const Matrix b = random_matrix(40, 24, -2.0f, 2.0f, 22);
  const Matrix c = random_matrix(48, 24, -2.0f, 2.0f, 23);

  const auto plan = ctx.plan(Backend::kEgemmTC, 48, 24, 40);
  Matrix d;
  plan->execute(ctx, a, b, &c, d);
  EXPECT_TRUE(bitwise_equal(d, egemm_multiply(a, b, &c)));

  EXPECT_TRUE(bitwise_equal(d, verify::reference_execute(*plan, a, b, &c)));
}

TEST(GemmPlanExecute, AllBackendsMatchTheOneShotApi) {
  GemmContext ctx;
  const Matrix a = random_matrix(33, 29, -1.0f, 1.0f, 31);
  const Matrix b = random_matrix(29, 18, -1.0f, 1.0f, 32);
  for (const Backend backend : all_backends()) {
    const auto plan = ctx.plan(backend, 33, 18, 29);
    Matrix d;
    plan->execute(ctx, a, b, nullptr, d);
    EXPECT_TRUE(bitwise_equal(d, gemm_ex(backend, a, b, nullptr, {})))
        << backend_name(backend);
  }
}

TEST(GemmPlanExecute, PlanPropertiesReflectTheRecipe) {
  GemmContext ctx;
  const auto egemm = ctx.plan(Backend::kEgemmTC, 64, 64, 64);
  EXPECT_FALSE(egemm->direct());
  EXPECT_EQ(egemm->terms().size(), 4u);
  EXPECT_GT(egemm->workspace_bytes(), 0u);

  const auto half = ctx.plan(Backend::kCublasTcHalf, 64, 64, 64);
  EXPECT_EQ(half->terms().size(), 1u);
  // Half reads the raw binary16 inputs: one plane, half the packs of a
  // two-plane rung.
  EXPECT_EQ(half->planes(), 1);
  EXPECT_EQ(egemm->planes(), 2);
  EXPECT_EQ(2 * half->workspace_bytes(), egemm->workspace_bytes());
  const auto markidis = ctx.plan(Backend::kMarkidis, 64, 64, 64);
  EXPECT_EQ(markidis->terms().size(), 3u);
  EXPECT_EQ(markidis->split(), core::SplitMethod::kTruncateSplit);

  const auto direct = ctx.plan(Backend::kCublasFp32, 64, 64, 64);
  EXPECT_TRUE(direct->direct());
  EXPECT_EQ(direct->workspace_bytes(), 0u);
}

TEST(GemmPlanCache, BackendPlansShareTheirRungsPlan) {
  // A fused backend is its rung: both ways in return one cached plan,
  // which runs the rung's descriptor terms. cuBLAS-TC-Emulation runs
  // round-2term's terms in separate passes, so it is a plan of its own.
  GemmContext ctx;
  const std::pair<Backend, core::SchemeId> fused[] = {
      {Backend::kEgemmTC, core::SchemeId::kRound2},
      {Backend::kCublasTcHalf, core::SchemeId::kHalf},
      {Backend::kMarkidis, core::SchemeId::kMarkidis}};
  for (const auto& [backend, rung] : fused) {
    const auto by_backend = ctx.plan(backend, 24, 40, 56);
    EXPECT_EQ(by_backend.get(), ctx.plan_scheme(rung, 24, 40, 56).get())
        << backend_name(backend);
    EXPECT_EQ(by_backend->key().backend, backend);
    EXPECT_EQ(by_backend->order(), ComboOrder::kFusedPerTile);
    EXPECT_EQ(by_backend->terms().data(), core::scheme(rung).terms.data());
  }
  EXPECT_EQ(ctx.cached_plans(), 3u);

  const auto emulation = ctx.plan(Backend::kCublasTcEmulation, 24, 40, 56);
  const auto round2 = ctx.plan_scheme(core::SchemeId::kRound2, 24, 40, 56);
  EXPECT_NE(emulation.get(), round2.get());
  EXPECT_EQ(ctx.cached_plans(), 4u);
  EXPECT_EQ(emulation->scheme_id(), core::SchemeId::kRound2);
  EXPECT_EQ(emulation->order(), ComboOrder::kSeparatePasses);
  EXPECT_EQ(emulation->terms().data(), round2->terms().data());
  EXPECT_EQ(emulation->terms().size(), 4u);

  const auto direct = ctx.plan(Backend::kDekker, 24, 40, 56);
  EXPECT_EQ(direct->key().scheme, -1);
  EXPECT_FALSE(direct->scheme_id().has_value());
}

TEST(GemmPlanExecute, TimingMatchesTimeGemm) {
  GemmContext ctx;
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  for (const Backend backend : all_backends()) {
    const auto plan = ctx.plan(backend, 256, 256, 256);
    EXPECT_DOUBLE_EQ(plan->timing(spec).seconds,
                     time_gemm(backend, 256, 256, 256, spec).seconds)
        << backend_name(backend);
  }
}

TEST(GemmPlanExecute, CallerOwnedOutputIsReusedInPlace) {
  GemmContext ctx;
  const auto plan = ctx.plan(Backend::kEgemmTC, 32, 32, 32);
  const Matrix a1 = random_matrix(32, 32, -1.0f, 1.0f, 41);
  const Matrix b1 = random_matrix(32, 32, -1.0f, 1.0f, 42);
  Matrix d;
  plan->execute(ctx, a1, b1, nullptr, d);
  const float* storage = d.data().data();

  const Matrix a2 = random_matrix(32, 32, -1.0f, 1.0f, 43);
  plan->execute(ctx, a2, b1, nullptr, d);
  EXPECT_EQ(d.data().data(), storage);  // same-shape execute: no realloc
  EXPECT_TRUE(bitwise_equal(d, egemm_multiply(a2, b1)));
}

TEST(GemmPlanExecute, SecondExecutePerformsNoWorkspaceAllocation) {
  if constexpr (!debug_workspace_accounting()) {
    GTEST_SKIP() << "workspace accounting is compiled out in NDEBUG builds";
  }
  GemmContext ctx;
  const auto plan = ctx.plan(Backend::kEgemmTC, 48, 48, 48);
  const Matrix a = random_matrix(48, 48, -1.0f, 1.0f, 51);
  const Matrix b = random_matrix(48, 48, -1.0f, 1.0f, 52);
  Matrix d;
  plan->execute(ctx, a, b, nullptr, d);  // warm-up: allocates workspaces

  const std::uint64_t before = debug_workspace_allocations();
  plan->execute(ctx, a, b, nullptr, d);
  plan->execute(ctx, a, b, nullptr, d);
  EXPECT_EQ(debug_workspace_allocations(), before)
      << "a reused plan must not touch the heap for its workspaces";
}

TEST(GemmPlanExecute, TransposedGemmExReadsItsOperandsInPlace) {
  // gemm_ex's trans_a / trans_b hand the operand's orientation to the
  // packs' fills instead of copying it: a warm call grows no workspace
  // (debug builds count), and each bit-matches gemm_ex on an explicit
  // transpose(), serial (40 x 24 x 36) and pooled (160 x 96 x 72).
  for (const auto& [m, n, k] : {std::array<std::size_t, 3>{40, 24, 36},
                               std::array<std::size_t, 3>{160, 96, 72}}) {
    GemmContext ctx;
    const Matrix a = random_matrix(m, k, -1.0f, 1.0f, 71);
    const Matrix b = random_matrix(k, n, -1.0f, 1.0f, 72);
    const Matrix at = transpose(a);
    const Matrix bt = transpose(b);
    for (const auto& [ta, tb] : {std::pair{Transpose::kTranspose, Transpose::kNone},
                                std::pair{Transpose::kNone, Transpose::kTranspose},
                                std::pair{Transpose::kTranspose,
                                          Transpose::kTranspose}}) {
      GemmExParams params;
      params.trans_a = ta;
      params.trans_b = tb;
      const Matrix& stored_a = ta == Transpose::kTranspose ? at : a;
      const Matrix& stored_b = tb == Transpose::kTranspose ? bt : b;
      const Matrix explicit_op =
          gemm_ex(ctx, Backend::kEgemmTC,
                  ta == Transpose::kTranspose ? transpose(stored_a) : a,
                  tb == Transpose::kTranspose ? transpose(stored_b) : b,
                  nullptr, {});
      static_cast<void>(
          gemm_ex(ctx, Backend::kEgemmTC, stored_a, stored_b, nullptr, params));
      const std::uint64_t before = debug_workspace_allocations();
      const Matrix d =
          gemm_ex(ctx, Backend::kEgemmTC, stored_a, stored_b, nullptr, params);
      EXPECT_EQ(debug_workspace_allocations(), before)
          << m << "x" << n << "x" << k << " a warm transposed call";
      EXPECT_TRUE(bitwise_equal(d, explicit_op))
          << m << "x" << n << "x" << k << " trans_a "
          << (ta == Transpose::kTranspose) << " trans_b "
          << (tb == Transpose::kTranspose);
    }
  }
}

TEST(GemmPlanExecute, WorkspacesRecycleThroughTheContextPool) {
  GemmContext ctx;
  const Matrix a = random_matrix(16, 16, -1.0f, 1.0f, 61);
  const Matrix b = random_matrix(16, 16, -1.0f, 1.0f, 62);
  (void)gemm_ex(ctx, Backend::kEgemmTC, a, b, nullptr, {});
  EXPECT_EQ(ctx.pooled_workspaces(), 1u);
  (void)gemm_ex(ctx, Backend::kEgemmTC, a, b, nullptr, {});
  EXPECT_EQ(ctx.pooled_workspaces(), 1u);  // reused, not duplicated

  // A single item above kRegionMaxWork fills its packs whole into one
  // lease, and its regions, which split nothing, lease no second one. A
  // warm repeat grows no workspace (debug builds count).
  static_assert(300 * 260 * 70 > kRegionMaxWork);
  const auto large = ctx.plan(Backend::kEgemmTC, 300, 260, 70);
  const Matrix la = random_matrix(300, 70, -1.0f, 1.0f, 63);
  const Matrix lb = random_matrix(70, 260, -1.0f, 1.0f, 64);
  Matrix d;
  large->execute(ctx, la, lb, nullptr, d);
  EXPECT_EQ(ctx.pooled_workspaces(), 1u);
  const std::uint64_t before = debug_workspace_allocations();
  large->execute(ctx, la, lb, nullptr, d);
  EXPECT_EQ(debug_workspace_allocations(), before)
      << "a warm whole fill must not grow a workspace";
  EXPECT_EQ(ctx.pooled_workspaces(), 1u);
}

TEST(GemmPlanExecute, RegionWorkspacesStayOwnedAndBoundedAndWarm) {
  // A pooled small single runs as one region per pool thread, and a
  // 64-item grouped call as one region per item, each split into the
  // workspace of the thread that claimed it: the caller's lease, or the
  // context's workspace for that pool worker, sized to the pass's largest
  // region. So the grouped call leaves at most T + 1 workspaces in the
  // context's pool, not one per item, and warm repeats of both grow no
  // workspace (debug builds count), whichever thread claims which region.
  const std::size_t threads = util::global_pool().size();
  GemmContext ctx;
  const auto single = ctx.plan(Backend::kEgemmTC, 96, 80, 64);
  static_assert(96 * 80 * 64 >= kSmallGemmInlineThreshold);
  const Matrix a = random_matrix(96, 64, -1.0f, 1.0f, 81);
  const Matrix b = random_matrix(64, 80, -1.0f, 1.0f, 82);
  Matrix d;
  constexpr std::size_t kItems = 64;
  constexpr std::size_t kDims[] = {32, 64, 128};
  std::vector<Matrix> as, bs, ds(kItems);
  std::vector<GroupedGemm> items;
  for (std::size_t i = 0; i < kItems; ++i) {
    const std::size_t m = kDims[i % 3];
    const std::size_t n = kDims[(i / 3) % 3];
    const std::size_t k = 32 << (i % 4);
    as.push_back(random_matrix(m, k, -1.0f, 1.0f, 100 + 2 * unsigned(i)));
    bs.push_back(random_matrix(k, n, -1.0f, 1.0f, 101 + 2 * unsigned(i)));
  }
  for (std::size_t i = 0; i < kItems; ++i) {
    items.push_back({ctx.plan_scheme(i % 2 == 0 ? core::SchemeId::kRound2
                                                : core::SchemeId::kRecovery3,
                                     as[i].rows(), bs[i].cols(), as[i].cols()),
                     &as[i], &bs[i], nullptr, &ds[i]});
  }
  single->execute(ctx, a, b, nullptr, d);
  ctx.execute_grouped(items);
  EXPECT_LE(ctx.pooled_workspaces(), threads + 1);

  const std::uint64_t before = debug_workspace_allocations();
  for (int round = 0; round < 3; ++round) {
    single->execute(ctx, a, b, nullptr, d);
    ctx.execute_grouped(items);
  }
  EXPECT_EQ(debug_workspace_allocations(), before)
      << "warm region passes must not grow a workspace";
  EXPECT_LE(ctx.pooled_workspaces(), threads + 1);
  EXPECT_TRUE(bitwise_equal(d, verify::reference_execute(*single, a, b,
                                                         nullptr)));
}

TEST(GemmPlanExecute, ZeroExtentShapesExecute) {
  GemmContext ctx;
  const auto plan = ctx.plan(Backend::kEgemmTC, 0, 8, 4);
  Matrix d;
  plan->execute(ctx, Matrix(0, 4), Matrix(4, 8), nullptr, d);
  EXPECT_EQ(d.rows(), 0u);
  EXPECT_EQ(d.cols(), 8u);

  const auto inner = ctx.plan(Backend::kEgemmTC, 3, 5, 0);
  Matrix e;
  inner->execute(ctx, Matrix(3, 0), Matrix(0, 5), nullptr, e);
  ASSERT_EQ(e.rows(), 3u);
  ASSERT_EQ(e.cols(), 5u);
  for (std::size_t i = 0; i < e.size(); ++i) EXPECT_EQ(e.data()[i], 0.0f);
}

TEST(GemmPlanExecute, ReusedWorkspaceAndOutputLeaveNoStaleBits) {
  // The split writes straight into the packs and the tiles read C, so a
  // warm workspace and a reused D hold the previous call's bits until every
  // element is overwritten. One context and one D run a large 3-plane
  // execute, then smaller 2-plane ones: m and n off every multiple of 16,
  // n wider than one B strip (kPackStrip), and NaN / +-Inf in B's last
  // column block. The serial shapes stay under kSmallGemmInlineThreshold,
  // the pooled ones above it; each runs with and without C.
  struct Case {
    core::SchemeId scheme;
    std::size_t m, n, k;
  };
  const Case cases[] = {
      {core::SchemeId::kRecovery3, 77, 1100, 131},  // pooled, sizes the packs
      {core::SchemeId::kRound2, 5, 1037, 33},       // serial, strip cuts rows
      {core::SchemeId::kRound2, 37, 1037, 45},      // pooled
      {core::SchemeId::kRound2, 19, 29, 70},        // serial, rows per strip
      {core::SchemeId::kRound2, 41, 83, 101},       // pooled
  };
  static_assert(kPackStrip < 1037);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  GemmContext ctx;
  Matrix d;
  unsigned seed = 70;
  for (const Case& s : cases) {
    ASSERT_NE(s.m % 16, 0u);
    ASSERT_NE(s.n % 16, 0u);
    const Matrix a = random_matrix(s.m, s.k, -2.0f, 2.0f, ++seed);
    Matrix b = random_matrix(s.k, s.n, -2.0f, 2.0f, ++seed);
    const Matrix c = random_matrix(s.m, s.n, -2.0f, 2.0f, ++seed);
    const std::size_t last_block = (s.n - 1) / 16 * 16;
    b.at(0, s.n - 1) = std::numeric_limits<float>::quiet_NaN();
    b.at(s.k / 2, last_block) = kInf;
    b.at(s.k - 1, s.n - 1) = -kInf;
    const auto plan = ctx.plan_scheme(s.scheme, s.m, s.n, s.k);
    for (const Matrix* cp : {static_cast<const Matrix*>(nullptr), &c}) {
      plan->execute(ctx, a, b, cp, d);
      EXPECT_TRUE(bitwise_equal(d, verify::reference_execute(*plan, a, b, cp)))
          << s.m << "x" << s.n << "x" << s.k << (cp != nullptr ? " +C" : "");
    }
  }
  EXPECT_EQ(ctx.pooled_workspaces(), 1u);  // every call reused one workspace
}

TEST(GemmPlanExecute, WorkspaceHoldsOnlyThePacks) {
  // Two planes of 1024^3: 64 row blocks of A plus 64 column blocks of B,
  // each 16 x 1024 floats per plane -- 16 MiB, with no second plane copy.
  GemmContext ctx;
  EXPECT_EQ(ctx.plan(Backend::kEgemmTC, 1024, 1024, 1024)->workspace_bytes(),
            std::size_t{16} << 20);
  // Padding counts: 17 rows and 17 columns each take two 16-wide blocks.
  EXPECT_EQ(ctx.plan_scheme(core::SchemeId::kRecovery3, 17, 17, 5)
                ->workspace_bytes(),
            3 * (2 + 2) * 16 * 5 * sizeof(float));
}

TEST(GemmContextRun, SharesPlansWithTheOneShotWrappers) {
  // The one-shot APIs are wrappers over default_context(): an explicit
  // context reproduces them bitwise without touching the shared cache.
  GemmContext ctx;
  const Matrix a = random_matrix(20, 28, -1.0f, 1.0f, 71);
  const Matrix b = random_matrix(28, 12, -1.0f, 1.0f, 72);
  for (const Backend backend : {Backend::kMarkidis, Backend::kCublasTcHalf}) {
    EXPECT_TRUE(bitwise_equal(gemm_ex(ctx, backend, a, b, nullptr, {}),
                              gemm_ex(backend, a, b, nullptr, {})))
        << backend_name(backend);
  }
  EXPECT_EQ(ctx.plan_misses(), 2u);
}

TEST(GemmContextRun, TimingOnlyOptionsShareTheDefaultPlan) {
  // Of EgemmOptions only the split reaches the bits: another tiling, or
  // switching off latency hiding or FRAG caching, changes modeled GPU time
  // alone, so egemm_multiply must land on the warm default plan.
  const Matrix a = random_matrix(40, 24, -1.0f, 1.0f, 81);
  const Matrix b = random_matrix(24, 36, -1.0f, 1.0f, 82);
  const Matrix expected = egemm_multiply(a, b);  // warms default_context()
  const model::SolverResult solved =
      model::solve(model::budget_from_spec(tcsim::tesla_t4()));
  ASSERT_GE(solved.feasible.size(), 2u);
  EgemmOptions tiled;
  tiled.tile = solved.feasible.back().config;
  ASSERT_FALSE(tiled.tile == table4_config());
  EgemmOptions naive;
  naive.latency_hiding = false;
  EgemmOptions uncached;
  uncached.frag_caching = false;
  GemmContext& ctx = default_context();
  const std::uint64_t misses = ctx.plan_misses();
  for (const EgemmOptions& opts : {tiled, naive, uncached}) {
    EXPECT_TRUE(bitwise_equal(egemm_multiply(a, b, nullptr, opts), expected));
  }
  EXPECT_EQ(ctx.plan_misses(), misses);
}

}  // namespace
}  // namespace egemm::gemm
