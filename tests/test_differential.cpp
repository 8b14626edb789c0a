// Tests for the differential accuracy runner (verify/differential.hpp):
// engine bitwise agreement, a-priori bound satisfaction, and the paper's
// round-vs-truncate precision ordering as measured facts.
#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/split.hpp"
#include "gemm/plan.hpp"
#include "verify/differential.hpp"
#include "verify/oracle.hpp"

namespace egemm::verify {
namespace {

constexpr std::size_t path_of(core::SchemeId rung) {
  return static_cast<std::size_t>(rung);
}

TEST(PathProfiles, MatchTheirAlgorithms) {
  // The paths are the ladder's rungs, by SchemeId and named after them,
  // each running its rung's fused plan; the last path runs round-2term in
  // cuBLAS-TC-Emulation's separate passes.
  ASSERT_EQ(kPathCount, core::kSchemeCount + 1);
  const gemm::Matrix a = gemm::random_matrix(16, 16, -1.0f, 1.0f, 5);
  const gemm::Matrix b = gemm::random_matrix(16, 16, -1.0f, 1.0f, 6);
  gemm::GemmContext ctx;
  const auto expect_runs = [&](std::size_t path, const gemm::GemmPlan& plan) {
    gemm::Matrix expected;
    plan.execute(ctx, a, b, nullptr, expected);
    const gemm::Matrix got = run_path(path, ctx, a, b, nullptr);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.data()[i], expected.data()[i]) << path_label(path);
    }
  };
  for (const core::SchemeId rung : core::scheme_ladder()) {
    EXPECT_STREQ(path_label(path_of(rung)), core::scheme_name(rung));
    expect_runs(path_of(rung), *ctx.plan_scheme(rung, 16, 16, 16));
  }
  EXPECT_STREQ(path_label(kSeparatePasses), "separate-passes");
  expect_runs(kSeparatePasses,
              *ctx.plan(gemm::Backend::kCublasTcEmulation, 16, 16, 16));
}

TEST(RunCase, UniformCaseSatisfiesEveryBound) {
  FuzzCase fuzz;
  fuzz.seed = 17;
  fuzz.m = 24;
  fuzz.n = 20;
  fuzz.k = 40;
  fuzz.kind = InputKind::kUniform;
  fuzz.with_c = true;
  const CaseResult result = run_case(fuzz);
  EXPECT_FALSE(result.special);
  EXPECT_TRUE(result.engine_match);
  for (std::size_t p = 0; p < kPathCount; ++p) {
    EXPECT_EQ(result.paths[p].violations, 0u)
        << path_label(p);
    EXPECT_LE(result.paths[p].worst_ratio, 1.0);
    EXPECT_EQ(result.paths[p].stats.count, fuzz.m * fuzz.n);
  }
}

TEST(RunCase, SpecialsCaseSkipsBoundsButEnginesAgree) {
  FuzzCase fuzz;
  fuzz.seed = 23;
  fuzz.m = 19;
  fuzz.n = 15;
  fuzz.k = 33;
  fuzz.kind = InputKind::kSpecials;
  fuzz.with_c = true;
  const CaseResult result = run_case(fuzz);
  EXPECT_TRUE(result.special);
  EXPECT_TRUE(result.engine_match);
  EXPECT_EQ(result.paths[0].stats.count, 0u);
}

TEST(RunCase, DegenerateShapesWork) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{17}}) {
    FuzzCase fuzz;
    fuzz.seed = 31 + k;
    fuzz.m = 1;
    fuzz.n = 1;
    fuzz.k = k;
    fuzz.kind = InputKind::kLogUniform;
    const CaseResult result = run_case(fuzz);
    EXPECT_TRUE(result.engine_match);
    for (std::size_t p = 0; p < kPathCount; ++p) {
      EXPECT_EQ(result.paths[p].violations, 0u);
    }
  }
}

TEST(RunAudit, FixedSeedIsCleanAndOrdersThePaths) {
  AuditOptions options;
  options.seed = 1;
  options.cases = 144;  // covers all 54 (kind, scheme) pairs (period 108)
  const AuditReport report = run_audit(options);
  EXPECT_EQ(report.cases_run, 144u);
  EXPECT_EQ(report.engine_mismatches, 0u);
  EXPECT_EQ(report.total_violations(), 0u);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.failing_cases.empty());
  // The paper's Fig. 4/Fig. 7 ordering on the uniform distribution:
  // round-split EGEMM strictly more accurate than truncate-split Markidis.
  EXPECT_TRUE(report.round_below_markidis());
  // And TC-Half is far worse than either (the ~350x Fig. 7 gap).
  const double egemm_ulp =
      report.uniform_stats[path_of(core::SchemeId::kRound2)].max_ulp;
  const double half_ulp =
      report.uniform_stats[path_of(core::SchemeId::kHalf)].max_ulp;
  EXPECT_GT(half_ulp, 10.0 * egemm_ulp);
}

TEST(RunAudit, TimeBudgetStopsEarly) {
  AuditOptions options;
  options.seed = 5;
  options.cases = 1000000;  // far more than the budget allows
  options.time_budget_seconds = 0.2;
  const AuditReport report = run_audit(options);
  EXPECT_LT(report.cases_run, report.cases_planned);
  EXPECT_TRUE(report.ok());
}

TEST(RunAudit, JsonReportRoundTrips) {
  AuditOptions options;
  options.seed = 2;
  options.cases = 21;
  const AuditReport report = run_audit(options);
  const std::string path = ::testing::TempDir() + "audit.json";
  ASSERT_TRUE(write_audit_json(path, report, "testsha"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 14, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_NE(text.find("\"git_sha\": \"testsha\""), std::string::npos);
  EXPECT_NE(text.find("\"seed\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"engine_scheme\": \"ladder\""), std::string::npos);
  // Every path appears under its rung's name.
  EXPECT_NE(text.find("\"half\""), std::string::npos);
  EXPECT_NE(text.find("\"truncate-2term\""), std::string::npos);
  EXPECT_NE(text.find("\"round-2term\""), std::string::npos);
  EXPECT_NE(text.find("\"separate-passes\""), std::string::npos);
  EXPECT_NE(text.find("\"markidis\""), std::string::npos);
  EXPECT_NE(text.find("\"recovery-3term\""), std::string::npos);
  EXPECT_NE(text.find("\"slice-3term\""), std::string::npos);
  EXPECT_NE(text.find("\"violations\": 0"), std::string::npos);
}

TEST(RunAudit, PinnedSchemeSoaksOneRung) {
  AuditOptions options;
  options.seed = 3;
  options.cases = 18;
  options.scheme = core::SchemeId::kRecovery3;
  const AuditReport report = run_audit(options);
  EXPECT_EQ(report.engine_scheme, "recovery-3term");
  EXPECT_TRUE(report.ok());
  // Every case descriptor the audit would replay carries the pinned rung.
  const std::string path = ::testing::TempDir() + "audit_pinned.json";
  ASSERT_TRUE(write_audit_json(path, report, "testsha"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 14, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_NE(text.find("\"engine_scheme\": \"recovery-3term\""),
            std::string::npos);
}

// The §3.2 claim made executable: on cancellation-free positive inputs the
// truncate-split residuals are one-signed and accumulate linearly, while
// round-split residuals random-walk. The binary32 accumulation noise is
// shared by both paths and dominates each path's absolute error, so the
// split behaviour shows up in the *drift between the paths*: Markidis'
// worst error sits measurably above the round-split path's, and the gap
// exceeds the entire random-walk envelope the round split allows for its
// own residuals.
TEST(RoundVsTruncate, MarkidisExceedsTheRoundSplitEnvelope) {
  FuzzCase fuzz;
  fuzz.seed = 77;
  fuzz.m = 16;
  fuzz.n = 16;
  fuzz.k = 96;
  fuzz.kind = InputKind::kPositive;
  const FuzzInputs inputs = generate_inputs(fuzz);
  const OracleMatrix oracle = oracle_gemm(inputs.a, inputs.b, nullptr);
  gemm::GemmContext& ctx = gemm::default_context();
  const gemm::Matrix round = run_path(path_of(core::SchemeId::kRound2), ctx,
                                      inputs.a, inputs.b, nullptr);
  const gemm::Matrix markidis = run_path(path_of(core::SchemeId::kMarkidis),
                                         ctx, inputs.a, inputs.b, nullptr);

  double round_worst = 0.0, markidis_worst = 0.0;
  for (std::size_t i = 0; i < fuzz.m; ++i) {
    for (std::size_t j = 0; j < fuzz.n; ++j) {
      const double ref = oracle.value(i, j);
      round_worst = std::max(
          round_worst, std::fabs(static_cast<double>(round.at(i, j)) - ref));
      markidis_worst = std::max(
          markidis_worst,
          std::fabs(static_cast<double>(markidis.at(i, j)) - ref));
    }
  }
  EXPECT_LT(round_worst, markidis_worst);

  // Positive kind draws from [0.5, 1), so scale 1.0 upper-bounds every row
  // and column: the random-walk envelope sqrt(k) * residual is the most the
  // round split's own residuals are expected to contribute.
  const double round_split_envelope =
      std::sqrt(static_cast<double>(fuzz.k)) *
      core::split_residual_bound(core::SplitMethod::kRoundSplit, 1.0);
  EXPECT_GT(markidis_worst - round_worst, round_split_envelope);
}

}  // namespace
}  // namespace egemm::verify
