// Tests for the plan/workspace execution layer (gemm/plan.hpp): cache
// hit/miss accounting, LRU eviction, bit-identity of the planned path with
// the one-shot APIs and the scalar oracle (verify::reference_execute),
// caller-owned output
// reuse, and the debug allocation guard (a reused plan performs no heap
// allocation on its second execute).
#include <gtest/gtest.h>

#include <cstring>

#include "gemm/gemm_api.hpp"
#include "gemm/plan.hpp"
#include "tcsim/gpu_spec.hpp"
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
  EgemmOptions truncate;
  truncate.split = core::SplitMethod::kTruncateSplit;
  const auto trunc = ctx.plan(Backend::kEgemmTC, 32, 32, 32, truncate);
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
    EXPECT_TRUE(bitwise_equal(d, run_gemm(backend, a, b)))
        << backend_name(backend);
  }
}

TEST(GemmPlanExecute, PlanPropertiesReflectTheRecipe) {
  GemmContext ctx;
  const auto egemm = ctx.plan(Backend::kEgemmTC, 64, 64, 64);
  EXPECT_FALSE(egemm->direct());
  EXPECT_EQ(egemm->combos().size(), 4u);
  EXPECT_GT(egemm->workspace_bytes(), 0u);

  const auto half = ctx.plan(Backend::kCublasTcHalf, 64, 64, 64);
  EXPECT_EQ(half->combos().size(), 1u);
  const auto markidis = ctx.plan(Backend::kMarkidis, 64, 64, 64);
  EXPECT_EQ(markidis->combos().size(), 3u);
  EXPECT_EQ(markidis->split(), core::SplitMethod::kTruncateSplit);

  const auto direct = ctx.plan(Backend::kCublasFp32, 64, 64, 64);
  EXPECT_TRUE(direct->direct());
  EXPECT_EQ(direct->workspace_bytes(), 0u);
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

TEST(GemmPlanExecute, WorkspacesRecycleThroughTheContextPool) {
  GemmContext ctx;
  const Matrix a = random_matrix(16, 16, -1.0f, 1.0f, 61);
  const Matrix b = random_matrix(16, 16, -1.0f, 1.0f, 62);
  (void)ctx.run(Backend::kEgemmTC, a, b);
  EXPECT_EQ(ctx.pooled_workspaces(), 1u);
  (void)ctx.run(Backend::kEgemmTC, a, b);
  EXPECT_EQ(ctx.pooled_workspaces(), 1u);  // reused, not duplicated
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

TEST(GemmContextRun, SharesPlansWithTheOneShotWrappers) {
  // The one-shot APIs are wrappers over default_context(): an explicit
  // context reproduces them bitwise without touching the shared cache.
  GemmContext ctx;
  const Matrix a = random_matrix(20, 28, -1.0f, 1.0f, 71);
  const Matrix b = random_matrix(28, 12, -1.0f, 1.0f, 72);
  EXPECT_TRUE(bitwise_equal(ctx.run(Backend::kMarkidis, a, b),
                            gemm_markidis(a, b)));
  EXPECT_TRUE(bitwise_equal(run_gemm(ctx, Backend::kCublasTcHalf, a, b),
                            gemm_tc_half(a, b)));
  EXPECT_EQ(ctx.plan_misses(), 2u);
}

}  // namespace
}  // namespace egemm::gemm
