// Tests for the shape-class autotuning cache (model/tuning_cache.hpp):
// power-of-two shape bucketing, staleness rejection (wrong schema or
// version never crashes, only falls back), the to_json/load_file round
// trip, ISA-tier preference on lookup, the gemm.tune.{hit,miss,fallback}
// counters, the file-level inline-threshold knob, and -- the layer above
// -- GemmPlan provably adopting a tuned grain/tile with an analytic-solver
// fallback when the tuned tile is infeasible or the file is absent.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gemm/plan.hpp"
#include "gemm/tiling.hpp"
#include "model/analytic_model.hpp"
#include "model/solver.hpp"
#include "model/tuning_cache.hpp"
#include "obs/metrics.hpp"
#include "simd/isa.hpp"
#include "tcsim/gpu_spec.hpp"

namespace egemm::model {
namespace {

/// Every test leaves the process-wide tuning state exactly as it found a
/// fresh process: no loaded table, no env-file memo, no threshold
/// override. The constructor also scrubs EGEMM_TUNING_FILE so a CI job
/// that exports it for the bench harness cannot leak into these tests.
struct GlobalTuningGuard {
  GlobalTuningGuard() {
    ::unsetenv("EGEMM_TUNING_FILE");
    TuningCache::global().clear();
    gemm::set_small_gemm_inline_threshold(0);
  }
  GlobalTuningGuard(const GlobalTuningGuard&) = delete;
  GlobalTuningGuard& operator=(const GlobalTuningGuard&) = delete;
  ~GlobalTuningGuard() {
    TuningCache::global().clear();
    gemm::set_small_gemm_inline_threshold(0);
  }
};

/// A unique temp-file path per call; removed by TempFile's destructor.
struct TempFile {
  explicit TempFile(const std::string& contents) {
    static int counter = 0;
    path = ::testing::TempDir() + "egemm_tuning_test_" +
           std::to_string(::getpid()) + "_" + std::to_string(counter++) +
           ".json";
    std::ofstream out(path, std::ios::binary);
    out << contents;
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  ~TempFile() { std::remove(path.c_str()); }

  std::string path;
};

TuningEntry make_entry(std::size_t m, std::size_t n, std::size_t k,
                       std::size_t grain, const std::string& isa) {
  TuningEntry entry;
  entry.shape = tuning_shape_class(m, n, k);
  entry.tile = gemm::table4_config();
  entry.grain = grain;
  entry.isa = isa;
  entry.ns_per_call = 1000.0;
  entry.gflops = 1.0;
  return entry;
}

std::uint64_t counter_value(const char* name) {
  for (const auto& counter : obs::registry().snapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

// -- shape classes -----------------------------------------------------------

TEST(TuningShapeClass, BucketsEachExtentToItsNextPowerOfTwo) {
  const TuningShapeClass cls = tuning_shape_class(65, 100, 1);
  EXPECT_EQ(cls.m, 128u);
  EXPECT_EQ(cls.n, 128u);
  EXPECT_EQ(cls.k, 1u);
  EXPECT_EQ(tuning_shape_class_name(cls), "128x128x1");
  // Exact powers are their own bucket; everything above 1024 shares one
  // "large" class per axis.
  EXPECT_EQ(tuning_shape_class(64, 64, 64),
            (TuningShapeClass{64, 64, 64}));
  EXPECT_EQ(tuning_shape_class(1025, 4096, 1 << 20),
            (TuningShapeClass{2048, 2048, 2048}));
}

// -- load / staleness --------------------------------------------------------

TEST(TuningCacheLoad, AbsentFileIsRejectedAndLookupReportsNoFile) {
  const GlobalTuningGuard guard;
  TuningCache cache;
  std::string error;
  EXPECT_FALSE(cache.load_file("/nonexistent/egemm-tuning.json", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
  EXPECT_FALSE(cache.loaded());
  TuningEntry entry;
  EXPECT_EQ(cache.lookup(64, 64, 64, &entry), TuningLookup::kNoFile);
}

TEST(TuningCacheLoad, StaleVersionIsRejectedNotCrashed) {
  const GlobalTuningGuard guard;
  const TempFile file(R"({"schema": "egemm-tuning", "version": 999,
                          "entries": []})");
  TuningCache cache;
  std::string error;
  EXPECT_FALSE(cache.load_file(file.path, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  EXPECT_EQ(cache.lookup(64, 64, 64), TuningLookup::kNoFile);
}

TEST(TuningCacheLoad, ForeignSchemaIsRejected) {
  const GlobalTuningGuard guard;
  const TempFile file(R"({"schema": "other-tool", "version": 1,
                          "entries": []})");
  TuningCache cache;
  std::string error;
  EXPECT_FALSE(cache.load_file(file.path, &error));
  EXPECT_EQ(cache.lookup(64, 64, 64), TuningLookup::kNoFile);
}

TEST(TuningCacheLoad, MalformedJsonIsRejected) {
  const GlobalTuningGuard guard;
  const TempFile file("{\"schema\": \"egemm-tuning\", \"version\": 1,");
  TuningCache cache;
  EXPECT_FALSE(cache.load_file(file.path));
  EXPECT_EQ(cache.lookup(64, 64, 64), TuningLookup::kNoFile);
}

TEST(TuningCacheLoad, RejectedLoadClearsAPreviouslyGoodTable) {
  const GlobalTuningGuard guard;
  TuningCache cache;
  cache.set_entries({make_entry(64, 64, 64, 3, "scalar")});
  EXPECT_EQ(cache.lookup(64, 64, 64), TuningLookup::kHit);
  const TempFile stale(R"({"schema": "egemm-tuning", "version": 999,
                           "entries": []})");
  EXPECT_FALSE(cache.load_file(stale.path));
  EXPECT_EQ(cache.lookup(64, 64, 64), TuningLookup::kNoFile);
}

// -- round trip --------------------------------------------------------------

TEST(TuningCacheRoundTrip, ToJsonLoadsBackWithEveryField) {
  const GlobalTuningGuard guard;
  const std::vector<TuningEntry> entries = {
      make_entry(64, 64, 64, 7, "scalar"),
      make_entry(128, 128, 128, 2, "scalar")};
  const std::string json =
      TuningCache::to_json(entries, "test-writer", std::size_t{4096});
  const TempFile file(json);
  TuningCache cache;
  std::string error;
  ASSERT_TRUE(cache.load_file(file.path, &error)) << error;
  EXPECT_TRUE(cache.loaded());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.source(), file.path);
  ASSERT_TRUE(cache.inline_threshold().has_value());
  EXPECT_EQ(*cache.inline_threshold(), 4096u);

  // Off-bucket shapes resolve through their class: (60, 50, 40) buckets
  // to 64x64x64.
  TuningEntry out;
  ASSERT_EQ(cache.lookup(60, 50, 40, &out), TuningLookup::kHit);
  EXPECT_EQ(out.grain, 7u);
  EXPECT_EQ(out.tile, gemm::table4_config());
  ASSERT_EQ(cache.lookup(100, 128, 90, &out), TuningLookup::kHit);
  EXPECT_EQ(out.grain, 2u);
  // A class the file does not cover is a miss, not a fallback.
  EXPECT_EQ(cache.lookup(512, 512, 512), TuningLookup::kMiss);

  // Files written while the sweep still had an engine axis carry an
  // "engine" key per entry; fields are looked up by name, so they load.
  const TempFile legacy(R"({"schema": "egemm-tuning", "version": 1,
    "entries": [
      {"shape_class": "256x256x256",
       "tile": {"bm": 128, "bn": 128, "bk": 32, "wm": 64, "wn": 32, "wk": 8},
       "grain": 16, "engine": "reference", "isa": "avx2",
       "ns_per_call": 1000.0, "gflops": 1.0}]})");
  TuningCache legacy_cache;
  ASSERT_TRUE(legacy_cache.load_file(legacy.path, &error)) << error;
  ASSERT_EQ(legacy_cache.lookup(256, 256, 256, &out), TuningLookup::kHit);
  EXPECT_EQ(out.grain, 16u);
  EXPECT_EQ(out.isa, "avx2");
}

TEST(TuningCacheRoundTrip, LookupPrefersTheActiveIsaTier) {
  const GlobalTuningGuard guard;
  const std::string active = simd::active_isa_name();
  const std::string other = active == "scalar" ? "avx512" : "scalar";
  TuningCache cache;
  cache.set_entries({make_entry(64, 64, 64, 3, other),
                     make_entry(64, 64, 64, 9, active)});
  TuningEntry out;
  ASSERT_EQ(cache.lookup(64, 64, 64, &out), TuningLookup::kHit);
  EXPECT_EQ(out.isa, active);
  EXPECT_EQ(out.grain, 9u);
  // An any-tier entry still hits when no entry matches the active tier.
  cache.set_entries({make_entry(64, 64, 64, 3, other)});
  ASSERT_EQ(cache.lookup(64, 64, 64, &out), TuningLookup::kHit);
  EXPECT_EQ(out.grain, 3u);
}

TEST(TuningCacheRoundTrip, LookupBumpsTheOutcomeCounters) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const GlobalTuningGuard guard;
  TuningCache cache;
  const std::uint64_t fallback_before = counter_value("gemm.tune.fallback");
  EXPECT_EQ(cache.lookup(64, 64, 64), TuningLookup::kNoFile);
  EXPECT_EQ(counter_value("gemm.tune.fallback"), fallback_before + 1);
  cache.set_entries({make_entry(64, 64, 64, 1, "scalar")});
  const std::uint64_t hit_before = counter_value("gemm.tune.hit");
  const std::uint64_t miss_before = counter_value("gemm.tune.miss");
  EXPECT_EQ(cache.lookup(64, 64, 64), TuningLookup::kHit);
  EXPECT_EQ(cache.lookup(256, 256, 256), TuningLookup::kMiss);
  EXPECT_EQ(counter_value("gemm.tune.hit"), hit_before + 1);
  EXPECT_EQ(counter_value("gemm.tune.miss"), miss_before + 1);
}

// -- the inline-threshold knob -----------------------------------------------

TEST(TuningCacheThreshold, FileThresholdFlowsIntoTheGemmLayer) {
  const GlobalTuningGuard guard;
  const std::string json =
      TuningCache::to_json({}, "test-writer", std::size_t{777});
  const TempFile file(json);
  std::string error;
  ASSERT_TRUE(TuningCache::global().load_file(file.path, &error)) << error;
  EXPECT_EQ(gemm::small_gemm_inline_threshold(), 777u);
  // An explicit set_ wins over the file; 0 hands control back to it.
  gemm::set_small_gemm_inline_threshold(555);
  EXPECT_EQ(gemm::small_gemm_inline_threshold(), 555u);
  gemm::set_small_gemm_inline_threshold(0);
  EXPECT_EQ(gemm::small_gemm_inline_threshold(), 777u);
  // Without any file the built-in 64^3 default applies.
  TuningCache::global().clear();
  EXPECT_EQ(gemm::small_gemm_inline_threshold(), std::size_t{64} * 64 * 64);
}

// -- plan adoption (the layer the cache exists for) --------------------------

TEST(TuningCachePlan, PlanAdoptsTunedGrainAndFeasibleTile) {
  const GlobalTuningGuard guard;
  const SolverResult solved = solve(budget_from_spec(tcsim::tesla_t4()));
  ASSERT_TRUE(solved.found);
  ASSERT_GE(solved.feasible.size(), 2u);
  // A feasible tile that is NOT the solver's own pick, so adoption is
  // distinguishable from the fallback.
  const gemm::TileConfig tuned_tile = solved.feasible.back().config;
  ASSERT_FALSE(tuned_tile == solved.best);
  TuningEntry entry = make_entry(64, 64, 64, 5, simd::active_isa_name());
  entry.tile = tuned_tile;
  TuningCache::global().set_entries({entry});
  gemm::GemmContext ctx;
  const auto plan = ctx.plan(gemm::Backend::kEgemmTC, 64, 64, 64);
  EXPECT_EQ(plan->schedule_grain(), 5u);
  EXPECT_TRUE(plan->tile() == tuned_tile);
}

TEST(TuningCachePlan, InfeasibleTunedTileFallsBackToTheSolverTile) {
  const GlobalTuningGuard guard;
  const SolverResult solved = solve(budget_from_spec(tcsim::tesla_t4()));
  ASSERT_TRUE(solved.found);
  TuningEntry entry = make_entry(64, 64, 64, 5, simd::active_isa_name());
  entry.tile = gemm::TileConfig{999, 999, 999, 999, 999, 999};
  TuningCache::global().set_entries({entry});
  gemm::GemmContext ctx;
  const auto plan = ctx.plan(gemm::Backend::kEgemmTC, 64, 64, 64);
  // The grain is schedule-only and survives; the unschedulable tile does
  // not make it into the plan.
  EXPECT_EQ(plan->schedule_grain(), 5u);
  EXPECT_TRUE(plan->tile() == solved.best);
}

TEST(TuningCachePlan, WithoutAFilePlansFallBackToTheAnalyticSolver) {
  const GlobalTuningGuard guard;
  const SolverResult solved = solve(budget_from_spec(tcsim::tesla_t4()));
  ASSERT_TRUE(solved.found);
  gemm::GemmContext ctx;
  const auto plan = ctx.plan(gemm::Backend::kEgemmTC, 64, 64, 64);
  EXPECT_EQ(plan->schedule_grain(), 0u);
  EXPECT_TRUE(plan->tile() == solved.best);
}

TEST(TuningCachePlan, PlansAreBitIdenticalWithAndWithoutTuning) {
  const GlobalTuningGuard guard;
  const gemm::Matrix a = gemm::random_matrix(64, 64, -1.0f, 1.0f, 1701);
  const gemm::Matrix b = gemm::random_matrix(64, 64, -1.0f, 1.0f, 1702);
  gemm::GemmContext untuned_ctx;
  const gemm::Matrix untuned =
      untuned_ctx.run(gemm::Backend::kEgemmTC, a, b);
  TuningCache::global().set_entries(
      {make_entry(64, 64, 64, 13, simd::active_isa_name())});
  gemm::GemmContext tuned_ctx;
  const gemm::Matrix tuned = tuned_ctx.run(gemm::Backend::kEgemmTC, a, b);
  ASSERT_EQ(tuned.size(), untuned.size());
  EXPECT_EQ(std::memcmp(tuned.data().data(), untuned.data().data(),
                        tuned.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace egemm::model
