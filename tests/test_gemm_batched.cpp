// Tests for the batched/grouped GEMM entry points (DESIGN.md §18): bit
// identity with the loop-of-singles path per emulation-ladder rung and
// forced ISA tier, empty batches, mixed transpose/epilogue parameters,
// batches mixing every solver-feasible tiling, direct-backend items at
// any position of a pool-dispatched batch, the strided convenience
// form, the contract overloads (including an infeasible item, which must
// leave the whole batch unexecuted), the small-GEMM inline-threshold knob,
// and the batch-tagged telemetry records the flattened stream deposits,
// whose stage attribution must stay inside the batch's wall time.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/scheme.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/plan.hpp"
#include "model/analytic_model.hpp"
#include "model/solver.hpp"
#include "model/tuning_cache.hpp"
#include "obs/callrec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "simd/isa.hpp"
#include "tcsim/gpu_spec.hpp"
#include "util/thread_pool.hpp"

namespace egemm::gemm {
namespace {

using simd::IsaLevel;

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data().data(), y.data().data(),
                      x.size() * sizeof(float)) == 0);
}

std::vector<IsaLevel> available_levels() {
  std::vector<IsaLevel> out;
  for (int level = 0; level < simd::kIsaLevelCount; ++level) {
    const auto candidate = static_cast<IsaLevel>(level);
    if (simd::isa_available(candidate)) out.push_back(candidate);
  }
  return out;
}

/// Restores ISA auto-resolution when a test that called force_isa exits.
struct IsaGuard {
  IsaGuard() = default;
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
  ~IsaGuard() { simd::reset_isa(); }
};

/// Restores the automatic small-GEMM inline threshold on exit.
struct ThresholdGuard {
  ThresholdGuard() = default;
  ThresholdGuard(const ThresholdGuard&) = delete;
  ThresholdGuard& operator=(const ThresholdGuard&) = delete;
  ~ThresholdGuard() { set_small_gemm_inline_threshold(0); }
};

// -- bit identity with the loop of singles -----------------------------------

TEST(GemmBatched, GroupedMatchesSingleLoopPerSchemeAndIsaTier) {
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kM = 48, kN = 40, kK = 32;
  for (const IsaLevel level : available_levels()) {
    const IsaGuard guard;
    ASSERT_EQ(simd::force_isa(level), level);
    for (const core::SchemeId scheme : core::scheme_ladder()) {
      GemmContext ctx;
      const auto plan = ctx.plan_scheme(scheme, kM, kN, kK);
      std::vector<Matrix> a, b;
      std::vector<Matrix> single(kBatch), grouped(kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        const auto seed = static_cast<unsigned>(100u * (static_cast<unsigned>(level) + 1) + 2u * static_cast<unsigned>(i));
        a.push_back(random_matrix(kM, kK, -2.0f, 2.0f, seed));
        b.push_back(random_matrix(kK, kN, -2.0f, 2.0f, seed + 1));
      }
      for (std::size_t i = 0; i < kBatch; ++i) {
        plan->execute(ctx, a[i], b[i], nullptr, single[i]);
      }
      std::vector<GroupedGemm> work(kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        work[i] = GroupedGemm{plan, &a[i], &b[i], nullptr, &grouped[i]};
      }
      ctx.execute_grouped(work);
      for (std::size_t i = 0; i < kBatch; ++i) {
        EXPECT_TRUE(bitwise_equal(grouped[i], single[i]))
            << "scheme=" << core::scheme_name(scheme)
            << " isa=" << simd::isa_name(level) << " item=" << i;
      }
    }
  }
}

TEST(GemmBatched, BatchedApiMatchesGemmExLoopAcrossIsaTiers) {
  constexpr std::size_t kBatch = 6;
  constexpr std::size_t kDim = 40;
  for (const IsaLevel level : available_levels()) {
    const IsaGuard guard;
    ASSERT_EQ(simd::force_isa(level), level);
    std::vector<Matrix> a, b, c;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto seed = static_cast<unsigned>(300u * (static_cast<unsigned>(level) + 1) + 3u * static_cast<unsigned>(i));
      a.push_back(random_matrix(kDim, kDim, -1.0f, 1.0f, seed));
      b.push_back(random_matrix(kDim, kDim, -1.0f, 1.0f, seed + 1));
      c.push_back(random_matrix(kDim, kDim, -1.0f, 1.0f, seed + 2));
    }
    GemmExParams params;
    params.alpha = 0.75f;
    params.beta = 0.25f;
    GemmContext batched_ctx;
    const std::vector<Matrix> batched =
        gemm_batched(batched_ctx, Backend::kEgemmTC, a, b, c, params);
    ASSERT_EQ(batched.size(), kBatch);
    GemmContext single_ctx;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const Matrix expect =
          gemm_ex(single_ctx, Backend::kEgemmTC, a[i], b[i], &c[i], params);
      EXPECT_TRUE(bitwise_equal(batched[i], expect))
          << "isa=" << simd::isa_name(level) << " item=" << i;
    }
  }
}

TEST(GemmBatched, EmptyBatchesAreNoOps) {
  GemmContext ctx;
  const std::vector<Matrix> none =
      gemm_batched(ctx, Backend::kEgemmTC, {}, {});
  EXPECT_TRUE(none.empty());
  gemm_grouped(ctx, Backend::kEgemmTC, {});
  ctx.execute_grouped({});
  EXPECT_EQ(ctx.plan_misses(), 0u);  // nothing was planned, let alone run
}

TEST(GemmBatched, GroupedMixedTransposeAndEpilogueMatchesGemmEx) {
  // All four transpose combinations plus alpha/beta epilogues in ONE
  // grouped call; each item must land bit-identical to its own gemm_ex.
  constexpr std::size_t kM = 24, kN = 20, kK = 28;
  struct Case {
    Transpose ta, tb;
    float alpha, beta;
  };
  const std::vector<Case> cases = {
      {Transpose::kNone, Transpose::kNone, 1.0f, 0.0f},
      {Transpose::kTranspose, Transpose::kNone, 1.0f, 1.0f},
      {Transpose::kNone, Transpose::kTranspose, -0.5f, 0.25f},
      {Transpose::kTranspose, Transpose::kTranspose, 2.0f, -1.0f},
  };
  std::vector<Matrix> a, b, c;
  std::vector<GemmExParams> params(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto seed = static_cast<unsigned>(500 + 3 * i);
    const bool ta = cases[i].ta == Transpose::kTranspose;
    const bool tb = cases[i].tb == Transpose::kTranspose;
    a.push_back(random_matrix(ta ? kK : kM, ta ? kM : kK, -1.0f, 1.0f, seed));
    b.push_back(
        random_matrix(tb ? kN : kK, tb ? kK : kN, -1.0f, 1.0f, seed + 1));
    c.push_back(random_matrix(kM, kN, -1.0f, 1.0f, seed + 2));
    params[i].trans_a = cases[i].ta;
    params[i].trans_b = cases[i].tb;
    params[i].alpha = cases[i].alpha;
    params[i].beta = cases[i].beta;
  }
  std::vector<Matrix> grouped(cases.size());
  std::vector<GroupedGemmItem> items(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    items[i] = GroupedGemmItem{&a[i], &b[i], &c[i], &grouped[i], params[i]};
  }
  GemmContext grouped_ctx;
  gemm_grouped(grouped_ctx, Backend::kEgemmTC, items);
  GemmContext single_ctx;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Matrix expect =
        gemm_ex(single_ctx, Backend::kEgemmTC, a[i], b[i], &c[i], params[i]);
    EXPECT_TRUE(bitwise_equal(grouped[i], expect)) << "item=" << i;
  }
}

TEST(GemmBatched, GroupedMixesEveryFeasibleTilingBitIdentically) {
  // One batch carrying a plan per solver-feasible tiling: the flattened
  // stream interleaves blocks of every tile shape and must still match
  // the per-item execute loop exactly.
  const model::SolverResult result =
      model::solve(model::budget_from_spec(tcsim::tesla_t4()));
  ASSERT_TRUE(result.found);
  ASSERT_GE(result.feasible.size(), 2u);
  GemmContext ctx;
  std::vector<std::shared_ptr<const GemmPlan>> plans;
  plans.reserve(result.feasible.size());
  for (const model::SolverCandidate& candidate : result.feasible) {
    plans.push_back(ctx.plan_scheme(core::SchemeId::kRound2, 48, 36, 32,
                                    candidate.config));
  }
  const std::size_t batch = plans.size();
  std::vector<Matrix> a, b;
  std::vector<Matrix> single(batch), grouped(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const auto seed = static_cast<unsigned>(700 + 2 * i);
    a.push_back(random_matrix(48, 32, -1.0f, 1.0f, seed));
    b.push_back(random_matrix(32, 36, -1.0f, 1.0f, seed + 1));
  }
  for (std::size_t i = 0; i < batch; ++i) {
    plans[i]->execute(ctx, a[i], b[i], nullptr, single[i]);
  }
  std::vector<GroupedGemm> work(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    work[i] = GroupedGemm{plans[i], &a[i], &b[i], nullptr, &grouped[i]};
  }
  ctx.execute_grouped(work);
  for (std::size_t i = 0; i < batch; ++i) {
    EXPECT_TRUE(bitwise_equal(grouped[i], single[i]))
        << "tiling index " << i << " (bm=" << plans[i]->tile().bm
        << " bn=" << plans[i]->tile().bn << ")";
  }
}

TEST(GemmBatched, GroupedMixesDirectAndEmulatedItemsInAnyOrder) {
  if (util::global_pool().size() <= 1) {
    GTEST_SKIP() << "needs a pool of more than one thread";
  }
  // Direct-backend items run inline and own no blocks of the flattened
  // stream; wherever they sit in the batch, every emulated block must
  // still reach its own item. 2 x 128^3 is above the inline threshold,
  // so the stream is dispatched on the pool.
  constexpr std::size_t kDim = 128;
  GemmContext ctx;
  const auto emulated = ctx.plan(Backend::kEgemmTC, kDim, kDim, kDim);
  const auto direct = ctx.plan(Backend::kCublasFp32, kDim, kDim, kDim);
  ASSERT_TRUE(direct->key().direct);
  std::vector<Matrix> a, b;
  for (unsigned i = 0; i < 3; ++i) {
    a.push_back(random_matrix(kDim, kDim, -1.0f, 1.0f, 1500 + 2 * i));
    b.push_back(random_matrix(kDim, kDim, -1.0f, 1.0f, 1501 + 2 * i));
  }
  for (const std::size_t direct_at : {std::size_t{2}, std::size_t{1},
                                      std::size_t{0}}) {
    std::vector<std::shared_ptr<const GemmPlan>> plans(3, emulated);
    plans[direct_at] = direct;
    std::vector<Matrix> single(3), grouped(3);
    std::vector<GroupedGemm> work(3);
    for (std::size_t i = 0; i < 3; ++i) {
      plans[i]->execute(ctx, a[i], b[i], nullptr, single[i]);
      work[i] = GroupedGemm{plans[i], &a[i], &b[i], nullptr, &grouped[i]};
    }
    ctx.execute_grouped(work);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(bitwise_equal(grouped[i], single[i]))
          << "direct item at " << direct_at << ", item " << i;
    }
  }
}

TEST(GemmBatched, StridedFormMatchesSpanForm) {
  constexpr std::size_t kBatch = 3;
  constexpr std::size_t kM = 16, kN = 12, kK = 20;
  std::vector<Matrix> a, b;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const auto seed = static_cast<unsigned>(900 + 2 * i);
    a.push_back(random_matrix(kM, kK, -1.0f, 1.0f, seed));
    b.push_back(random_matrix(kK, kN, -1.0f, 1.0f, seed + 1));
  }
  // Row-major stacks: item i occupies rows [i*m, (i+1)*m) of A and
  // [i*k, (i+1)*k) of B, i.e. contiguous element blocks.
  Matrix a_stack(kBatch * kM, kK);
  Matrix b_stack(kBatch * kK, kN);
  for (std::size_t i = 0; i < kBatch; ++i) {
    std::memcpy(a_stack.data().data() + i * kM * kK, a[i].data().data(),
                kM * kK * sizeof(float));
    std::memcpy(b_stack.data().data() + i * kK * kN, b[i].data().data(),
                kK * kN * sizeof(float));
  }
  GemmContext ctx;
  const Matrix d_stack =
      gemm_batched_strided(ctx, Backend::kEgemmTC, kBatch, a_stack, b_stack);
  ASSERT_EQ(d_stack.rows(), kBatch * kM);
  ASSERT_EQ(d_stack.cols(), kN);
  const std::vector<Matrix> d = gemm_batched(ctx, Backend::kEgemmTC, a, b);
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(std::memcmp(d_stack.data().data() + i * kM * kN,
                          d[i].data().data(), kM * kN * sizeof(float)),
              0)
        << "item=" << i;
  }
}

TEST(GemmBatched, ContractBatchedMatchesContractLoop) {
  // With explicit (> 0) scales the batch-wide resolution is exactly the
  // per-item resolution, so the contract batch must be bit-identical to
  // the per-item contract gemm_ex loop.
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kDim = 32;
  core::AccuracyContract contract;
  contract.max_abs_error = 1e-2;
  contract.a_scale = 2.0;
  contract.b_scale = 2.0;
  std::vector<Matrix> a, b;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const auto seed = static_cast<unsigned>(1100 + 2 * i);
    a.push_back(random_matrix(kDim, kDim, -2.0f, 2.0f, seed));
    b.push_back(random_matrix(kDim, kDim, -2.0f, 2.0f, seed + 1));
  }
  GemmContext batched_ctx;
  const std::vector<Matrix> batched =
      gemm_batched(batched_ctx, a, b, {}, GemmExParams{}, contract);
  ASSERT_EQ(batched.size(), kBatch);
  GemmContext single_ctx;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const Matrix expect =
        gemm_ex(single_ctx, a[i], b[i], nullptr, GemmExParams{}, contract);
    EXPECT_TRUE(bitwise_equal(batched[i], expect)) << "item=" << i;
  }
}

// -- the small-GEMM inline-threshold knob ------------------------------------

TEST(GemmBatched, InlineThresholdKnobRoundTripsAndPreservesResults) {
  const ThresholdGuard guard;
  // The automatic threshold consults the loaded tuning file; make sure
  // this process resolves against the built-in default instead.
  ::unsetenv("EGEMM_TUNING_FILE");
  model::TuningCache::global().clear();
  set_small_gemm_inline_threshold(12345);
  EXPECT_EQ(small_gemm_inline_threshold(), 12345u);
  set_small_gemm_inline_threshold(0);
  // No tuning file is loaded in this test binary, so 0 restores the 64^3
  // built-in default.
  EXPECT_EQ(small_gemm_inline_threshold(),
            std::size_t{64} * 64 * 64);

  // Both extreme settings must leave batched results bit-identical to the
  // singles loop: the threshold selects a schedule (fused/serial vs
  // pipelined dispatch), never an operation sequence.
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kDim = 48;
  std::vector<Matrix> a, b;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const auto seed = static_cast<unsigned>(1300 + 2 * i);
    a.push_back(random_matrix(kDim, kDim, -1.0f, 1.0f, seed));
    b.push_back(random_matrix(kDim, kDim, -1.0f, 1.0f, seed + 1));
  }
  GemmContext single_ctx;
  std::vector<Matrix> expect;
  for (std::size_t i = 0; i < kBatch; ++i) {
    expect.push_back(
        gemm_ex(single_ctx, Backend::kEgemmTC, a[i], b[i], nullptr, {}));
  }
  for (const std::size_t threshold : {std::size_t{1}, std::size_t{1} << 30}) {
    set_small_gemm_inline_threshold(threshold);
    GemmContext ctx;
    const std::vector<Matrix> batched =
        gemm_batched(ctx, Backend::kEgemmTC, a, b);
    ASSERT_EQ(batched.size(), kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      EXPECT_TRUE(bitwise_equal(batched[i], expect[i]))
          << "threshold=" << threshold << " item=" << i;
    }
  }
}

// -- batch-tagged telemetry --------------------------------------------------

TEST(GemmBatched, GroupedDepositsBatchTaggedCallRecords) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  constexpr std::size_t kBatch = 3;
  constexpr std::size_t kDim = 32;
  GemmContext ctx;
  const auto plan = ctx.plan(Backend::kEgemmTC, kDim, kDim, kDim);
  std::vector<Matrix> a, b, d(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    const auto seed = static_cast<unsigned>(1500 + 2 * i);
    a.push_back(random_matrix(kDim, kDim, -1.0f, 1.0f, seed));
    b.push_back(random_matrix(kDim, kDim, -1.0f, 1.0f, seed + 1));
  }
  std::vector<GroupedGemm> work(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    work[i] = GroupedGemm{plan, &a[i], &b[i], nullptr, &d[i]};
  }
  obs::clear_call_records();
  ctx.execute_grouped(work);
  const std::vector<obs::CallRecord> records = obs::drain_call_records();
  const obs::CallRecord* tagged = nullptr;
  for (const obs::CallRecord& rec : records) {
    if (rec.batch_id != 0 && rec.m == kDim) tagged = &rec;
  }
  ASSERT_NE(tagged, nullptr)
      << "no batch-tagged record among " << records.size();
  EXPECT_EQ(tagged->batch, kBatch);  // one record covers the shape class
  EXPECT_GT(tagged->total_ns, 0u);
  EXPECT_EQ(tagged->flops, kBatch * 2 * kDim * kDim * kDim);

  const obs::CallSummary summary = obs::summarize_calls(records);
  bool found_class = false;
  for (const obs::CallClassSummary& cls : summary.classes) {
    if (cls.m != kDim || cls.batch != kBatch) continue;
    found_class = true;
    EXPECT_EQ(cls.gemms, kBatch);
    EXPECT_EQ(cls.batched_records, 1u);
  }
  EXPECT_TRUE(found_class) << "batch class missing from summary";
}

TEST(GemmBatched, GroupedStageAttributionStaysInsideTheBatchWall) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  if (util::global_pool().size() <= 1) {
    GTEST_SKIP() << "needs a pool of more than one thread";
  }
  // Sixteen small items beside one large one: the small items' prep runs
  // on parallel pool threads, so per-item stage times summed across
  // threads would exceed the small class's share of the batch wall.
  constexpr std::size_t kSmall = 16;
  constexpr std::size_t kSmallDim = 32;
  constexpr std::size_t kLargeDim = 256;
  GemmContext ctx;
  const auto small = ctx.plan(Backend::kEgemmTC, kSmallDim, kSmallDim,
                              kSmallDim);
  const auto large = ctx.plan(Backend::kEgemmTC, kLargeDim, kLargeDim,
                              kLargeDim);
  std::vector<Matrix> a, b, d(kSmall + 1);
  for (std::size_t i = 0; i <= kSmall; ++i) {
    const std::size_t dim = i < kSmall ? kSmallDim : kLargeDim;
    const auto seed = static_cast<unsigned>(1700 + 2 * i);
    a.push_back(random_matrix(dim, dim, -1.0f, 1.0f, seed));
    b.push_back(random_matrix(dim, dim, -1.0f, 1.0f, seed + 1));
  }
  std::vector<GroupedGemm> work;
  for (std::size_t i = 0; i <= kSmall; ++i) {
    work.push_back(GroupedGemm{i < kSmall ? small : large, &a[i], &b[i],
                               nullptr, &d[i]});
  }
  ctx.execute_grouped(work);  // warm the workspaces

  obs::clear_call_records();
  const std::uint64_t t0 = obs::monotonic_ns();
  ctx.execute_grouped(work);
  const std::uint64_t wall = obs::monotonic_ns() - t0;
  const std::vector<obs::CallRecord> records = obs::drain_call_records();
  ASSERT_EQ(records.size(), 2u);  // one per shape class
  std::uint64_t totals = 0;
  for (const obs::CallRecord& rec : records) {
    EXPECT_NE(rec.batch_id, 0u);
    EXPECT_EQ(rec.batch, rec.m == kSmallDim ? kSmall : 1u);
    EXPECT_LE(rec.split_ns + rec.pack_ns + rec.mma_ns + rec.combine_ns,
              rec.total_ns)
        << "class m=" << rec.m;
    EXPECT_GT(rec.mma_ns, 0u) << "class m=" << rec.m;
    totals += rec.total_ns;
  }
  EXPECT_LE(totals, wall);
}

// -- failure paths -----------------------------------------------------------

TEST(GemmBatched, InfeasibleContractItemLeavesTheBatchUnexecuted) {
  // One item's data is 10^4 times larger, so no rung's bound meets the
  // contract for it; the promise is that no item executes at all.
  constexpr std::size_t kItems = 3;
  constexpr std::size_t kDim = 32;
  constexpr float kSentinel = -7.25f;
  core::AccuracyContract contract;
  contract.max_abs_error = 1e-3;
  std::vector<Matrix> a, b, d;
  for (std::size_t i = 0; i < kItems; ++i) {
    const float range = i == 1 ? 1e4f : 1.0f;
    const auto seed = static_cast<unsigned>(1900 + 2 * i);
    a.push_back(random_matrix(kDim, kDim, -range, range, seed));
    b.push_back(random_matrix(kDim, kDim, -range, range, seed + 1));
    d.emplace_back(kDim, kDim);
    d.back().fill(kSentinel);
  }
  ASSERT_TRUE(
      gemm_ex_contract_resolution(a[0], b[0], nullptr, {}, contract).feasible);
  ASSERT_FALSE(
      gemm_ex_contract_resolution(a[1], b[1], nullptr, {}, contract).feasible);
  std::vector<GroupedGemmItem> items(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    items[i].a = &a[i];
    items[i].b = &b[i];
    items[i].d = &d[i];
  }

  GemmContext ctx;
  const auto count = [](const char* name) {
    return obs::registry().counter(name).value();
  };
  const std::uint64_t batch_calls = count("gemm.batch.calls");
  const std::uint64_t egemm_calls = count("egemm.calls");
  obs::clear_call_records();
  EXPECT_THROW(gemm_grouped(ctx, items, contract), std::invalid_argument);

  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(d[i].rows(), kDim);
    ASSERT_EQ(d[i].cols(), kDim);
    for (const float value : d[i].data()) {
      ASSERT_EQ(value, kSentinel) << "item=" << i;
    }
  }
  EXPECT_EQ(count("gemm.batch.calls"), batch_calls);
  EXPECT_EQ(count("egemm.calls"), egemm_calls);
  EXPECT_EQ(ctx.cached_plans(), 0u);
  EXPECT_TRUE(obs::drain_call_records().empty());
}

// -- plan-cache occupancy/eviction observability -----------------------------

TEST(GemmBatched, PlanCacheEvictionCountersAndGaugesPublish) {
  GemmContext ctx(2);
  (void)ctx.plan(Backend::kEgemmTC, 16, 16, 16);
  (void)ctx.plan(Backend::kEgemmTC, 24, 24, 24);
  (void)ctx.plan(Backend::kEgemmTC, 32, 32, 32);  // evicts the first plan
  EXPECT_EQ(ctx.plan_evictions(), 1u);
  EXPECT_EQ(ctx.cached_plans(), 2u);
  EXPECT_EQ(ctx.plan_capacity(), 2u);
  if (!obs::kEnabled) return;
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  bool saw_size = false, saw_capacity = false, saw_evictions = false;
  for (const auto& gauge : snap.gauges) {
    if (gauge.name == "gemm.plan.cache.size") saw_size = true;
    if (gauge.name == "gemm.plan.cache.capacity") saw_capacity = true;
  }
  for (const auto& counter : snap.counters) {
    if (counter.name == "gemm.plan.cache.evictions" && counter.value >= 1) {
      saw_evictions = true;
    }
  }
  EXPECT_TRUE(saw_size);
  EXPECT_TRUE(saw_capacity);
  EXPECT_TRUE(saw_evictions);
}

}  // namespace
}  // namespace egemm::gemm
