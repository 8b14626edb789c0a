// The emulation-precision ladder (DESIGN.md §16): scheme registry and
// classification, per-rung a-priori bounds (dominance over the regression
// corpus, ladder monotonicity), accuracy-contract resolution/selection,
// scheme identity through the plan cache, and the scheme-aware static
// cross-check that catches a kernel claiming a rung it does not implement.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/kmeans.hpp"
#include "apps/knn.hpp"
#include "apps/pca.hpp"
#include "core/scheme.hpp"
#include "core/split.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "obs/callrec.hpp"
#include "obs/metrics.hpp"
#include "sass/analysis/precision.hpp"
#include "verify/differential.hpp"
#include "verify/error_model.hpp"
#include "verify/fuzzer.hpp"
#include "verify/oracle.hpp"

namespace egemm {
namespace {

using core::AccuracyContract;
using core::BoundInputs;
using core::SchemeId;

// -- ladder registry ---------------------------------------------------------

TEST(SchemeLadder, OrderNamesAndIds) {
  const std::span<const SchemeId> ladder = core::scheme_ladder();
  ASSERT_EQ(ladder.size(), core::kSchemeCount);
  const char* const expected[] = {"half",        "markidis",
                                  "truncate-2term", "round-2term",
                                  "slice-3term", "recovery-3term"};
  for (std::size_t i = 0; i < core::kSchemeCount; ++i) {
    EXPECT_EQ(ladder[i], static_cast<SchemeId>(i));
    EXPECT_STREQ(core::scheme_name(ladder[i]), expected[i]);
    EXPECT_EQ(core::scheme(ladder[i]).id, ladder[i]);
  }
}

TEST(SchemeLadder, SplitBitsStrictlyIncreaseAlongTheLadder) {
  const int expected_split_bits[] = {10, 19, 20, 21, 30, 32};
  const int expected_operation_bits[] = {10, 19, 20, 21, 24, 24};
  int prev = 0;
  for (std::size_t i = 0; i < core::kSchemeCount; ++i) {
    const core::SchemeDescriptor& desc =
        core::scheme(static_cast<SchemeId>(i));
    EXPECT_EQ(desc.split_bits, expected_split_bits[i]) << desc.name;
    EXPECT_GT(desc.split_bits, prev) << desc.name;
    prev = desc.split_bits;
    // The binary32 accumulator caps the operation precision at 24 bits.
    EXPECT_EQ(std::min(desc.split_bits, 24), expected_operation_bits[i])
        << desc.name;
  }
}

TEST(SchemeLadder, TermCountsAndPlanes) {
  const int expected_terms[] = {1, 3, 4, 4, 9, 9};
  const int expected_planes[] = {1, 2, 2, 2, 3, 3};
  for (std::size_t i = 0; i < core::kSchemeCount; ++i) {
    const SchemeId id = static_cast<SchemeId>(i);
    const core::SchemeDescriptor& desc = core::scheme(id);
    const auto term_count = static_cast<int>(desc.terms.size());
    EXPECT_EQ(term_count, expected_terms[i]) << desc.name;
    EXPECT_EQ(desc.planes, expected_planes[i]) << desc.name;
    // The descriptor's term list and the induced profile grid must agree.
    EXPECT_EQ(core::scheme_profile(id).term_count(), term_count) << desc.name;
    std::set<std::pair<int, int>> unique;
    for (const core::SchemeTerm& term : desc.terms) {
      EXPECT_GE(term.a_depth, 0);
      EXPECT_LT(term.a_depth, desc.planes);
      EXPECT_GE(term.b_depth, 0);
      EXPECT_LT(term.b_depth, desc.planes);
      unique.emplace(term.a_depth, term.b_depth);
    }
    EXPECT_EQ(static_cast<int>(unique.size()), term_count) << desc.name;
  }
}

TEST(SchemeLadder, ParseSchemeNameRoundTrips) {
  for (const SchemeId id : core::scheme_ladder()) {
    const std::optional<SchemeId> parsed =
        core::parse_scheme_name(core::scheme_name(id));
    ASSERT_TRUE(parsed.has_value()) << core::scheme_name(id);
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_FALSE(core::parse_scheme_name("bogus").has_value());
  EXPECT_FALSE(core::parse_scheme_name("").has_value());
  EXPECT_FALSE(core::parse_scheme_name("Round-2term").has_value());
}

// -- profile classification --------------------------------------------------

TEST(SchemeClassify, ProfileRoundTripsForEveryRung) {
  for (const SchemeId id : core::scheme_ladder()) {
    const std::optional<SchemeId> back =
        core::classify_scheme(core::scheme_profile(id));
    ASSERT_TRUE(back.has_value()) << core::scheme_name(id);
    EXPECT_EQ(*back, id) << core::scheme_name(id);
  }
}

TEST(SchemeClassify, MismatchedProfilesClassifyAsNoRungOrAnotherRung) {
  // Full 4-term grid with a truncate split is truncate-2term, not round.
  core::SchemeProfile truncate4 = core::scheme_profile(SchemeId::kRound2);
  truncate4.split = core::SplitMethod::kTruncateSplit;
  EXPECT_EQ(core::classify_scheme(truncate4), SchemeId::kTruncate2);

  // Markidis' dropped lo x lo under a *round* split matches no named rung.
  core::SchemeProfile round_markidis = core::scheme_profile(SchemeId::kRound2);
  round_markidis.set_term(1, 1, false);
  EXPECT_FALSE(core::classify_scheme(round_markidis).has_value());

  // A 9-term rung missing one term matches no named rung.
  core::SchemeProfile slice_partial = core::scheme_profile(SchemeId::kSlice3);
  slice_partial.set_term(2, 2, false);
  EXPECT_FALSE(core::classify_scheme(slice_partial).has_value());
}

// -- bound ladder ------------------------------------------------------------

double representation_bound(SchemeId id, const BoundInputs& in) {
  const core::ErrorBound bound = core::scheme_bound(id, in);
  return bound.split_term + bound.dropped_term;
}

TEST(SchemeBounds, RepresentationErrorIsMonotoneAlongTheLadder) {
  // split_bits orders the rungs by representation fidelity; the split +
  // dropped-term component of the bound must respect that order at normal
  // scales (below ~1e-2 the absolute subnormal floors take over and the
  // ordering legitimately flattens).
  for (const double scale : {0.5, 1.0, 64.0}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{4},
                                std::size_t{64}}) {
      const BoundInputs in{k, scale, scale, 0.0};
      double prev = representation_bound(SchemeId::kHalf, in);
      for (std::size_t i = 1; i < core::kSchemeCount; ++i) {
        const SchemeId id = static_cast<SchemeId>(i);
        const double rep = representation_bound(id, in);
        EXPECT_LE(rep, prev)
            << core::scheme_name(id) << " scale " << scale << " k " << k;
        prev = rep;
      }
    }
  }
}

TEST(SchemeBounds, TotalBoundStrictlyDecreasesAtKOne) {
  // With k = 1 the (term_count * k)-driven accumulation term cannot invert
  // the ladder, so the *total* sound bound is strictly decreasing.
  const BoundInputs in{1, 1.0, 1.0, 0.0};
  double prev = core::scheme_bound(SchemeId::kHalf, in).worst_abs;
  EXPECT_GT(prev, 0.0);
  for (std::size_t i = 1; i < core::kSchemeCount; ++i) {
    const SchemeId id = static_cast<SchemeId>(i);
    const double total = core::scheme_bound(id, in).worst_abs;
    EXPECT_LT(total, prev) << core::scheme_name(id);
    prev = total;
  }
}

TEST(SchemeBounds, LargeKCanInvertTheLadderTotals) {
  // The documented reason the contract resolver evaluates every rung
  // instead of trusting ladder order: 9-term rungs pay 9k binary32
  // accumulation steps, so at large k their total bound exceeds the
  // 4-term round split's.
  const BoundInputs in{4096, 1.0, 1.0, 0.0};
  EXPECT_GT(core::scheme_bound(SchemeId::kRecovery3, in).worst_abs,
            core::scheme_bound(SchemeId::kRound2, in).worst_abs);
}

// -- bound dominance over the regression corpus ------------------------------

std::vector<verify::FuzzCase> load_corpus() {
  std::vector<verify::FuzzCase> cases;
  const std::filesystem::path dir(EGEMM_CORPUS_DIR);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".txt") continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      if (const std::optional<verify::FuzzCase> fuzz =
              verify::parse_case(line)) {
        cases.push_back(*fuzz);
      }
    }
  }
  return cases;
}

TEST(SchemeBounds, DominateMeasuredErrorOnCorpusForEveryRung) {
  // Every (non-special) corpus entry, executed under every ladder rung,
  // must land within that rung's own sound a-priori element bound against
  // the double-double oracle -- the bound-dominance certification the
  // differential harness applies per path, here applied per rung.
  const std::vector<verify::FuzzCase> corpus = load_corpus();
  ASSERT_FALSE(corpus.empty());
  gemm::GemmContext ctx;
  for (const verify::FuzzCase& fuzz : corpus) {
    const verify::FuzzInputs in = verify::generate_inputs(fuzz);
    if (verify::inputs_special(in)) continue;
    const verify::OracleMatrix oracle =
        verify::oracle_gemm(in.a, in.b, in.c_ptr());
    std::vector<double> row_amax(in.a.rows(), 0.0);
    std::vector<double> col_bmax(in.b.cols(), 0.0);
    for (std::size_t i = 0; i < in.a.rows(); ++i) {
      for (std::size_t t = 0; t < in.a.cols(); ++t) {
        row_amax[i] = std::max(
            row_amax[i], std::abs(static_cast<double>(in.a.at(i, t))));
      }
    }
    for (std::size_t t = 0; t < in.b.rows(); ++t) {
      for (std::size_t j = 0; j < in.b.cols(); ++j) {
        col_bmax[j] = std::max(
            col_bmax[j], std::abs(static_cast<double>(in.b.at(t, j))));
      }
    }
    for (const SchemeId rung : core::scheme_ladder()) {
      gemm::Matrix d;
      ctx.plan_scheme(rung, in.a.rows(), in.b.cols(), in.a.cols())
          ->execute(ctx, in.a, in.b, in.c_ptr(), d);
      const core::SchemeProfile profile = core::scheme_profile(rung);
      for (std::size_t i = 0; i < d.rows(); ++i) {
        for (std::size_t j = 0; j < d.cols(); ++j) {
          const double c_abs =
              in.use_c ? std::abs(static_cast<double>(in.c.at(i, j))) : 0.0;
          const BoundInputs element{in.a.cols(), row_amax[i], col_bmax[j],
                                    c_abs};
          const double err = std::abs(static_cast<double>(d.at(i, j)) -
                                      oracle.value(i, j));
          ASSERT_LE(err, core::scheme_element_bound(profile, element).worst_abs)
              << verify::format_case(fuzz) << " rung "
              << core::scheme_name(rung) << " element (" << i << ", " << j
              << ")";
        }
      }
    }
  }
}

// -- accuracy-contract resolution --------------------------------------------

core::ContractResolution resolve_at_unit_scale(double target,
                                               std::size_t k = 1) {
  return core::resolve_contract(AccuracyContract{target, 1.0, 1.0, 0.0}, k);
}

TEST(AccuracyContract, SelectsTheCheapestSufficientRung) {
  // At k = 1, unit scales, the rung totals are roughly: half 2e-3,
  // markidis 2.1e-6, truncate-2term 1.2e-6, round-2term 7.2e-7,
  // slice-3term 5.37e-7, recovery-3term 5.37e-7.
  struct Expect {
    double target;
    SchemeId scheme;
  };
  const Expect table[] = {
      {1e-2, SchemeId::kHalf},
      {3e-6, SchemeId::kMarkidis},
      {2e-6, SchemeId::kRound2},
      {6e-7, SchemeId::kRecovery3},
  };
  for (const Expect& expect : table) {
    const core::ContractResolution res = resolve_at_unit_scale(expect.target);
    EXPECT_TRUE(res.feasible) << expect.target;
    EXPECT_EQ(res.scheme, expect.scheme) << expect.target;
    EXPECT_LE(res.bound.worst_abs, expect.target);
    EXPECT_EQ(res.target, expect.target);
  }
}

TEST(AccuracyContract, RungTableCoversTheWholeLadder) {
  const core::ContractResolution res = resolve_at_unit_scale(2e-6);
  for (std::size_t i = 0; i < core::kSchemeCount; ++i) {
    const core::SchemeRungBound& rung = res.rungs[i];
    EXPECT_EQ(rung.scheme, static_cast<SchemeId>(i));
    EXPECT_GT(rung.worst_abs, 0.0);
    EXPECT_EQ(rung.feasible, rung.worst_abs <= res.target)
        << core::scheme_name(rung.scheme);
  }
}

TEST(AccuracyContract, TruncateTwoTermIsNeverAutoSelected) {
  // round-2term has the same term count and a strictly tighter bound, so
  // truncate-2term is dominated: no target can make the resolver pick it.
  for (double target = 1e-12; target <= 1.0; target *= 2.0) {
    const core::ContractResolution res = resolve_at_unit_scale(target);
    if (res.feasible) {
      EXPECT_NE(res.scheme, SchemeId::kTruncate2) << target;
    }
  }
}

TEST(AccuracyContract, InfeasibleTargetNamesTheTightestRung) {
  const core::ContractResolution res = resolve_at_unit_scale(1e-8);
  EXPECT_FALSE(res.feasible);
  EXPECT_EQ(res.tightest, SchemeId::kRecovery3);
  EXPECT_GT(res.tightest_worst_abs, 1e-8);
  EXPECT_EQ(res.bound.worst_abs, 0.0);
}

TEST(AccuracyContract, NonPositiveTargetIsAlwaysInfeasible) {
  EXPECT_FALSE(resolve_at_unit_scale(0.0).feasible);
  EXPECT_FALSE(resolve_at_unit_scale(-1.0).feasible);
}

TEST(AccuracyContract, KZeroIsFeasibleOnEveryRung) {
  // D = C exactly: no products, no error, even the half rung qualifies
  // for an arbitrarily tight (positive) target and wins as cheapest.
  const core::ContractResolution res = resolve_at_unit_scale(1e-30, 0);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.scheme, SchemeId::kHalf);
  for (const core::SchemeRungBound& rung : res.rungs) {
    EXPECT_TRUE(rung.feasible) << core::scheme_name(rung.scheme);
  }
}

gemm::Matrix deterministic_matrix(std::size_t rows, std::size_t cols) {
  gemm::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const auto mix = static_cast<float>((i * 7 + j * 3) % 16);
      m.at(i, j) = 0.0625f + 0.0625f * mix;
    }
  }
  return m;
}

TEST(AccuracyContract, GemmExThrowsWhenNoRungQualifies) {
  const gemm::Matrix a = deterministic_matrix(6, 5);
  const gemm::Matrix b = deterministic_matrix(5, 4);
  const AccuracyContract contract{1e-9, 0.0, 0.0, 0.0};
  try {
    gemm::gemm_ex(gemm::default_context(), a, b, nullptr,
                  gemm::GemmExParams{}, contract);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("accuracy contract"),
              std::string::npos)
        << err.what();
  }
}

TEST(AccuracyContract, GemmExMeetsTheContractItAccepted) {
  const gemm::Matrix a = deterministic_matrix(6, 5);
  const gemm::Matrix b = deterministic_matrix(5, 4);
  const AccuracyContract contract{1e-4, 0.0, 0.0, 0.0};
  const gemm::Matrix d =
      gemm::gemm_ex(gemm::default_context(), a, b, nullptr,
                    gemm::GemmExParams{}, contract);
  const verify::OracleMatrix oracle = verify::oracle_gemm(a, b);
  for (std::size_t i = 0; i < d.rows(); ++i) {
    for (std::size_t j = 0; j < d.cols(); ++j) {
      EXPECT_LE(std::abs(static_cast<double>(d.at(i, j)) - oracle.value(i, j)),
                contract.max_abs_error);
    }
  }
}

// -- the one infeasible-contract error, through every contract entry -------

/// A contract entry point run on `ctx` under an accuracy target, and the
/// inner dimension k of the GEMM it resolves the contract for.
struct ContractEntry {
  const char* name;
  std::size_t k;
  void (*run)(gemm::GemmContext& ctx, double target);
};

const ContractEntry kContractEntries[] = {
    {"gemm_ex", 16,
     [](gemm::GemmContext& ctx, double target) {
       const gemm::Matrix a = gemm::random_matrix(24, 16, -1, 1, 71);
       const gemm::Matrix b = gemm::random_matrix(16, 20, -1, 1, 72);
       gemm::gemm_ex(ctx, a, b, nullptr, {}, AccuracyContract{target});
     }},
    {"gemm_ex_epilogue", 16,
     [](gemm::GemmContext& ctx, double target) {
       const gemm::Matrix a = gemm::random_matrix(24, 16, -1, 1, 73);
       const gemm::Matrix b = gemm::random_matrix(16, 20, -1, 1, 74);
       const gemm::Matrix c = gemm::random_matrix(24, 20, -1, 1, 75);
       gemm::gemm_ex(ctx, a, b, &c, {.alpha = 0.5f, .beta = 0.25f},
                     AccuracyContract{target});
     }},
    {"gemm_grouped", 16,
     [](gemm::GemmContext& ctx, double target) {
       const gemm::Matrix a = gemm::random_matrix(24, 16, -1, 1, 76);
       const gemm::Matrix b = gemm::random_matrix(16, 20, -1, 1, 77);
       gemm::Matrix d0, d1;
       const gemm::GroupedGemmItem items[] = {{&a, &b, nullptr, &d0, {}},
                                              {&a, &b, nullptr, &d1, {}}};
       gemm::gemm_grouped(ctx, items, AccuracyContract{target});
     }},
    {"kmeans", 16,
     [](gemm::GemmContext& ctx, double target) {
       apps::KMeansOptions opts;
       opts.clusters = 4;
       opts.precision_target = target;
       opts.context = &ctx;
       apps::kmeans(gemm::random_matrix(64, 16, -1, 1, 78), opts);
     }},
    {"knn_search", 16,
     [](gemm::GemmContext& ctx, double target) {
       apps::KnnOptions opts;
       opts.k = 4;
       opts.precision_target = target;
       opts.context = &ctx;
       apps::knn_search(gemm::random_matrix(80, 16, -1, 1, 79),
                        gemm::random_matrix(32, 16, -1, 1, 80), opts);
     }},
    {"pca_power", 64,
     [](gemm::GemmContext& ctx, double target) {
       apps::PcaOptions opts;
       opts.components = 2;
       opts.precision_target = target;
       opts.context = &ctx;
       apps::pca_power(gemm::random_matrix(64, 16, -1, 1, 81), opts);
     }},
};

class InfeasibleContractTest
    : public ::testing::TestWithParam<ContractEntry> {};

TEST_P(InfeasibleContractTest, ThrowsNamingTheTightestRungAndLeavesNoTrace) {
  // No C reaches any kernel here, so every rung's bound scales with
  // |A| |B| alike: which rung is tightest depends on k alone.
  const std::string tightest =
      std::string("tightest rung (") +
      core::scheme_name(core::resolve_contract(
                            AccuracyContract{1e-30, 1.0, 1.0, 0.0},
                            GetParam().k)
                            .tightest) +
      ")";
  gemm::GemmContext ctx;
  const auto calls = [] {
    return obs::registry().counter("egemm.calls").value();
  };
  const std::uint64_t calls_before = calls();
  obs::clear_call_records();
  try {
    GetParam().run(ctx, 1e-30);
    FAIL() << "an infeasible target must throw";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("accuracy contract"), std::string::npos)
        << message;
    EXPECT_NE(message.find(tightest), std::string::npos) << message;
  }
  EXPECT_EQ(ctx.cached_plans(), 0u);
  EXPECT_EQ(calls(), calls_before);
  EXPECT_TRUE(obs::drain_call_records().empty());

  // The same entry meets a loose target, so the throw above was the
  // contract's and not a broken setup's.
  GetParam().run(ctx, 1.0);
  EXPECT_GT(ctx.cached_plans(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ContractEntries, InfeasibleContractTest,
    ::testing::ValuesIn(kContractEntries),
    [](const ::testing::TestParamInfo<ContractEntry>& entry) {
      return std::string(entry.param.name);
    });

// -- scheme identity through the plan layer ----------------------------------

TEST(SchemePlans, PlanSchemeRoundTripsTheRungIdentity) {
  gemm::GemmContext ctx;
  for (const SchemeId id : core::scheme_ladder()) {
    const std::shared_ptr<const gemm::GemmPlan> plan =
        ctx.plan_scheme(id, 8, 8, 8);
    ASSERT_NE(plan, nullptr) << core::scheme_name(id);
    ASSERT_TRUE(plan->scheme_id().has_value()) << core::scheme_name(id);
    EXPECT_EQ(*plan->scheme_id(), id) << core::scheme_name(id);
  }
}

TEST(SchemePlans, DefaultEgemmBackendClassifiesAsRoundTwoTerm) {
  gemm::GemmContext ctx;
  const std::shared_ptr<const gemm::GemmPlan> plan =
      ctx.plan(gemm::Backend::kEgemmTC, 8, 8, 8);
  ASSERT_TRUE(plan->scheme_id().has_value());
  EXPECT_EQ(*plan->scheme_id(), SchemeId::kRound2);
}

TEST(SchemePlans, ExecuteBumpsThePerSchemeCounter) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability disabled";
  }
  gemm::GemmContext ctx;
  const gemm::Matrix a = deterministic_matrix(8, 8);
  const gemm::Matrix b = deterministic_matrix(8, 8);
  for (const SchemeId id : core::scheme_ladder()) {
    const std::string name = std::string("gemm.scheme.") +
                             core::scheme_name(id);
    const std::uint64_t before = obs::registry().counter(name).value();
    gemm::Matrix d;
    ctx.plan_scheme(id, 8, 8, 8)->execute(ctx, a, b, nullptr, d);
    EXPECT_EQ(obs::registry().counter(name).value(), before + 1) << name;
  }
}

// -- scheme-aware static cross-check -----------------------------------------

sass::analysis::PrecisionProfile static_round2_profile() {
  sass::analysis::PrecisionProfile profile;
  profile.derived = true;
  profile.split = core::SplitMethod::kRoundSplit;
  profile.rounding = sass::Rounding::kRoundNearest;
  profile.planes = 2;
  profile.term_mask = 0;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      profile.term_mask |= 1u << (a * 2 + b);
      profile.terms.push_back({a, b, 16, 1.0});
    }
  }
  profile.derived_bits_a = 21;
  profile.derived_bits_b = 21;
  profile.operation_bits = 21;
  profile.rel_residual = 0x1.0p-22;
  profile.lo_plane_rel = 0x1.0p-11;
  profile.k_per_term = 64;
  profile.adds_per_element = 256;
  return profile;
}

TEST(SchemeCrossCheck, MatchingClaimIsAcceptedAndDominated) {
  const sass::analysis::PrecisionProfile profile = static_round2_profile();
  const BoundInputs in{64, 1.0, 1.0, 0.0};
  const verify::StaticCrossCheck check =
      verify::cross_check_static_profile(profile, SchemeId::kRound2, in);
  EXPECT_TRUE(check.checked);
  EXPECT_TRUE(check.scheme_match);
  EXPECT_TRUE(check.dominates);
  EXPECT_GE(check.hand_worst_abs, check.derived_worst_abs);
}

TEST(SchemeCrossCheck, WrongClaimIsCaught) {
  // A kernel whose instruction stream derives as the full 4-term round
  // scheme must not certify while claiming Markidis (3 terms) or the
  // truncate split -- this was invisible to the 2-term-only cross-check.
  const sass::analysis::PrecisionProfile profile = static_round2_profile();
  const BoundInputs in{64, 1.0, 1.0, 0.0};
  EXPECT_FALSE(
      verify::cross_check_static_profile(profile, SchemeId::kMarkidis, in)
          .scheme_match);
  EXPECT_FALSE(
      verify::cross_check_static_profile(profile, SchemeId::kTruncate2, in)
          .scheme_match);

  sass::analysis::PrecisionProfile truncate = static_round2_profile();
  truncate.split = core::SplitMethod::kTruncateSplit;
  truncate.rounding = sass::Rounding::kTruncate;
  truncate.rel_residual = 0x1.0p-21;
  EXPECT_FALSE(
      verify::cross_check_static_profile(truncate, SchemeId::kRound2, in)
          .scheme_match);
  EXPECT_TRUE(
      verify::cross_check_static_profile(truncate, SchemeId::kTruncate2, in)
          .scheme_match);
}

TEST(SchemeCrossCheck, UnderivedProfileIsNotChecked) {
  const sass::analysis::PrecisionProfile profile;
  const verify::StaticCrossCheck check = verify::cross_check_static_profile(
      profile, SchemeId::kRound2, BoundInputs{8, 1.0, 1.0, 0.0});
  EXPECT_FALSE(check.checked);
  EXPECT_TRUE(check.scheme_match);
}

}  // namespace
}  // namespace egemm
