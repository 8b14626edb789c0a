// Precision-dataflow certification (EG5xx) tests: the abstract
// interpretation must derive the documented 21-bit profile from every
// feasible tiling's instruction stream, catch hand-built kernels that
// drop, mis-route, or mis-round split-product terms, and agree with the
// hand-written a-priori error model (DESIGN.md §14).

#include <gtest/gtest.h>

#include "model/analytic_model.hpp"
#include "model/solver.hpp"
#include "sass/analysis/passes.hpp"
#include "sass/analysis/precision.hpp"
#include "sass/assembler.hpp"
#include "sass/build.hpp"
#include "tcsim/gpu_spec.hpp"
#include "verify/error_model.hpp"

namespace {

using namespace egemm;
using namespace egemm::sass;
using analysis::Dataflow;
using analysis::DiagnosticEngine;
using analysis::PrecisionOptions;
using analysis::PrecisionProfile;
using analysis::run_precision_dataflow_pass;

bool has_any_eg5(const DiagnosticEngine& engine) {
  for (const analysis::Diagnostic& d : engine.diagnostics()) {
    if (d.code.rfind("EG5", 0) == 0) return true;
  }
  return false;
}

// -- hand-built kernel scaffolding -------------------------------------------
// A minimal tagged kernel: four plane loads feed one accumulator through a
// configurable set of HMMA terms, committed by an epilogue store. Register
// map: R0 a_hi, R1 a_lo, R2 b_hi, R3 b_lo, R4..R7 acc.

struct HandKernelSpec {
  std::vector<std::pair<int, int>> terms = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  Rounding rounding = Rounding::kRoundNearest;
  bool tagged = true;
  /// Route every B operand from the hi plane register regardless of the
  /// term's claimed B plane (the mis-route EG502 catches).
  bool misroute_b = false;
};

Kernel hand_kernel(const HandKernelSpec& spec) {
  Kernel kernel;
  kernel.name = "hand";
  kernel.loop_trips = 1;
  kernel.virtual_regs = 8;

  auto ldg = [&](int reg, bool is_a, int plane) {
    Instr instr;
    instr.op = Op::kLdg;
    instr.dst = RegRange{reg, 1};
    if (spec.tagged) {
      if (is_a) {
        instr.num.a_planes = static_cast<std::uint8_t>(1u << plane);
      } else {
        instr.num.b_planes = static_cast<std::uint8_t>(1u << plane);
      }
      instr.num.rounding = spec.rounding;
    }
    kernel.prologue.push_back(instr);
  };
  ldg(0, true, 0);
  ldg(1, true, 1);
  ldg(2, false, 0);
  ldg(3, false, 1);
  {
    Instr init;
    init.op = Op::kMov;
    init.dst = RegRange{4, 4};
    kernel.prologue.push_back(init);
  }
  for (const auto& [ta, tb] : spec.terms) {
    Instr hmma;
    hmma.op = Op::kHmma;
    hmma.dst = RegRange{4, 4};
    const RegRange a_src{ta == 0 ? 0 : 1, 1};
    const RegRange b_src{spec.misroute_b ? 2 : (tb == 0 ? 2 : 3), 1};
    hmma.srcs = {a_src, b_src, RegRange{4, 4}};
    if (spec.tagged) {
      hmma.num.term_a = static_cast<std::int8_t>(ta);
      hmma.num.term_b = static_cast<std::int8_t>(tb);
    }
    kernel.body.push_back(hmma);
  }
  {
    Instr stg;
    stg.op = Op::kStg;
    stg.srcs = {RegRange{4, 4}};
    kernel.epilogue.push_back(stg);
  }
  {
    Instr exit;
    exit.op = Op::kExit;
    kernel.epilogue.push_back(exit);
  }
  return kernel;
}

PrecisionProfile run_hand(const Kernel& kernel, const PrecisionOptions& options,
                          DiagnosticEngine& engine) {
  const Dataflow dataflow(kernel);
  return run_precision_dataflow_pass(kernel, dataflow, options, engine);
}

PrecisionOptions hand_options() {
  PrecisionOptions options;
  options.enabled = true;
  options.emulation_instructions = 4;
  return options;
}

// -- generated kernels: every feasible tiling certifies ----------------------

TEST(PrecisionDataflow, EveryFeasibleTilingDerivesDocumentedProfile) {
  const model::SolverResult solved =
      model::solve(model::budget_from_spec(tcsim::tesla_t4()));
  ASSERT_TRUE(solved.found);
  ASSERT_FALSE(solved.feasible.empty());
  for (const model::SolverCandidate& candidate : solved.feasible) {
    BuildOptions options;
    options.tile = candidate.config;
    options.k_iterations = 8;
    const BuiltKernel built = build_egemm_kernel(options);

    SCOPED_TRACE(candidate.config.describe());
    ASSERT_TRUE(built.precision.derived);
    EXPECT_GE(built.precision.operation_bits, 21);
    EXPECT_EQ(built.precision.planes, 2);
    EXPECT_EQ(built.precision.rounding, Rounding::kRoundNearest);
    EXPECT_EQ(built.precision.term_mask, 0xFu);
    EXPECT_FALSE(built.diagnostics.has_code("EG501"));
    EXPECT_FALSE(built.diagnostics.has_code("EG502"));
    EXPECT_FALSE(built.diagnostics.has_code("EG503"));
    EXPECT_FALSE(built.diagnostics.has_code("EG510"));

    // The hand-written a-priori bound must dominate the statically
    // derived bound for a representative element context.
    core::BoundInputs in;
    in.k = 256;
    in.a_scale = 1.0;
    in.b_scale = 1.0;
    const verify::StaticCrossCheck check =
        verify::cross_check_static_profile(built.precision, in);
    ASSERT_TRUE(check.checked);
    EXPECT_TRUE(check.dominates);
    EXPECT_GT(check.derived_worst_abs, 0.0);
    EXPECT_GE(check.hand_worst_abs, check.derived_worst_abs);
  }
}

TEST(PrecisionDataflow, EachEmulationSchemeDerivesItsBits) {
  struct Case {
    int emu;
    int bits;
    int planes;
    Rounding rounding;
  };
  for (const Case& c :
       {Case{1, 10, 1, Rounding::kHalfDirect},
        Case{4, 21, 2, Rounding::kRoundNearest},
        Case{9, 24, 3, Rounding::kRoundNearest},
        Case{16, 21, 2, Rounding::kRoundNearest}}) {
    BuildOptions options;
    options.k_iterations = 8;
    options.emulation_instructions = c.emu;
    const BuiltKernel built = build_egemm_kernel(options);
    SCOPED_TRACE(c.emu);
    ASSERT_TRUE(built.precision.derived);
    EXPECT_EQ(built.precision.operation_bits, c.bits);
    EXPECT_EQ(built.precision.planes, c.planes);
    EXPECT_EQ(built.precision.rounding, c.rounding);
    EXPECT_FALSE(has_any_eg5(built.diagnostics));
    EXPECT_EQ(static_cast<int>(built.precision.terms.size()),
              c.planes * c.planes);
  }
}

TEST(PrecisionDataflow, TruncateSplitLosesOneBitAndWarns) {
  BuildOptions options;
  options.k_iterations = 8;
  options.split = core::SplitMethod::kTruncateSplit;
  const BuiltKernel built = build_egemm_kernel(options);
  ASSERT_TRUE(built.precision.derived);
  EXPECT_EQ(built.precision.operation_bits, 20);
  EXPECT_EQ(built.precision.split, core::SplitMethod::kTruncateSplit);
  EXPECT_EQ(built.precision.rounding, Rounding::kTruncate);
  // One bit below the 21-bit profile: warning, not error -- and the
  // rounding matches the configuration, so no EG503.
  EXPECT_TRUE(built.diagnostics.has_code("EG501"));
  EXPECT_FALSE(built.diagnostics.has_code("EG502"));
  EXPECT_FALSE(built.diagnostics.has_code("EG503"));
  EXPECT_FALSE(built.diagnostics.has_code("EG510"));
}

TEST(PrecisionDataflow, KernelCoversTheTilingReduction) {
  BuildOptions options;
  options.k_iterations = 8;
  const BuiltKernel built = build_egemm_kernel(options);
  ASSERT_TRUE(built.precision.derived);
  for (const analysis::TermInfo& term : built.precision.terms) {
    EXPECT_EQ(term.k_lanes_per_trip,
              static_cast<std::uint64_t>(options.tile.bk));
  }
  EXPECT_EQ(built.precision.k_per_term,
            static_cast<std::uint64_t>(options.tile.bk) *
                built.kernel.loop_trips);
}

// -- hand-built kernels: the defect detectors --------------------------------

TEST(PrecisionDataflow, CleanHandKernelCertifies) {
  DiagnosticEngine engine;
  const PrecisionProfile profile =
      run_hand(hand_kernel({}), hand_options(), engine);
  ASSERT_TRUE(profile.derived);
  EXPECT_EQ(profile.operation_bits, 21);
  EXPECT_EQ(profile.term_mask, 0xFu);
  EXPECT_TRUE(profile.term_computed(1, 1));
  EXPECT_FALSE(has_any_eg5(engine));
}

TEST(PrecisionDataflow, DroppedLoLoTermTriggersEG502) {
  HandKernelSpec spec;
  spec.terms = {{0, 0}, {0, 1}, {1, 0}};  // Markidis: no Alo x Blo
  DiagnosticEngine engine;
  const PrecisionProfile profile =
      run_hand(hand_kernel(spec), hand_options(), engine);
  ASSERT_TRUE(profile.derived);
  EXPECT_TRUE(engine.has_code("EG502"));
  EXPECT_FALSE(profile.term_computed(1, 1));
  EXPECT_EQ(profile.term_mask, 0x7u);
  // A dropped term is a blocking correctness error, like EG1xx/EG2xx.
  EXPECT_TRUE(has_blocking_errors(engine));
}

TEST(PrecisionDataflow, MisroutedTermTriggersEG502) {
  HandKernelSpec spec;
  spec.misroute_b = true;  // every HMMA consumes Bhi, whatever it claims
  DiagnosticEngine engine;
  run_hand(hand_kernel(spec), hand_options(), engine);
  EXPECT_TRUE(engine.has_code("EG502"));
}

TEST(PrecisionDataflow, RoundingMismatchTriggersEG503) {
  HandKernelSpec spec;
  spec.rounding = Rounding::kTruncate;  // planes are RZ16...
  PrecisionOptions options = hand_options();
  options.split = core::SplitMethod::kRoundSplit;  // ...config says RN16
  DiagnosticEngine engine;
  const PrecisionProfile profile =
      run_hand(hand_kernel(spec), options, engine);
  EXPECT_TRUE(engine.has_code("EG503"));
  // The derivation reports what the kernel actually does: 20 bits.
  ASSERT_TRUE(profile.derived);
  EXPECT_EQ(profile.operation_bits, 20);
  EXPECT_TRUE(engine.has_code("EG501"));
}

TEST(PrecisionDataflow, HandModelDisagreementTriggersEG510) {
  // An "unsound" hand constant: smaller than the derived residual.
  {
    PrecisionOptions options = hand_options();
    options.hand_residual_rel = 0x1.0p-30;
    DiagnosticEngine engine;
    run_hand(hand_kernel({}), options, engine);
    EXPECT_TRUE(engine.has_code("EG510"));
  }
  // A uselessly loose one: more than 2x the derived residual.
  {
    PrecisionOptions options = hand_options();
    options.hand_residual_rel = 0x1.0p-18;
    DiagnosticEngine engine;
    run_hand(hand_kernel({}), options, engine);
    EXPECT_TRUE(engine.has_code("EG510"));
  }
  // The real core::split_* constants agree (the default path).
  {
    DiagnosticEngine engine;
    run_hand(hand_kernel({}), hand_options(), engine);
    EXPECT_FALSE(engine.has_code("EG510"));
  }
}

TEST(PrecisionDataflow, UntaggedKernelYieldsNoProfileAndNoDiagnostics) {
  HandKernelSpec spec;
  spec.tagged = false;
  DiagnosticEngine engine;
  const PrecisionProfile profile =
      run_hand(hand_kernel(spec), hand_options(), engine);
  EXPECT_FALSE(profile.derived);
  EXPECT_TRUE(engine.diagnostics().empty());
}

// -- integration: run_all_passes, assembler round-trip, error model ----------

TEST(PrecisionDataflow, RunAllPassesIntegrationFillsProfile) {
  analysis::AnalysisOptions options;
  options.precision = hand_options();
  PrecisionProfile profile;
  options.precision_profile = &profile;
  DiagnosticEngine engine;
  analysis::run_all_passes(hand_kernel({}), options, engine);
  EXPECT_TRUE(profile.derived);
  EXPECT_EQ(profile.operation_bits, 21);

  // With physical registers the pass is skipped: register reuse would
  // merge unrelated def-use chains and fake conflicts.
  analysis::AnalysisOptions physical = options;
  PrecisionProfile skipped;
  physical.precision_profile = &skipped;
  physical.physical_registers = true;
  DiagnosticEngine engine2;
  analysis::run_all_passes(hand_kernel({}), physical, engine2);
  EXPECT_FALSE(skipped.derived);
}

TEST(PrecisionDataflow, NumericTagsSurviveAssemblerRoundTrip) {
  BuildOptions options;
  options.k_iterations = 8;
  options.allocate = false;  // keep operands virtual for the re-derivation
  const BuiltKernel built = build_egemm_kernel(options);
  ASSERT_TRUE(built.precision.derived);

  const ParseResult reparsed = parse_text(emit_text(built.kernel));
  ASSERT_TRUE(reparsed.success) << reparsed.error;
  auto check_section = [](const std::vector<Instr>& before,
                          const std::vector<Instr>& after) {
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i].num, after[i].num) << "instr " << i;
    }
  };
  check_section(built.kernel.prologue, reparsed.kernel.prologue);
  check_section(built.kernel.body, reparsed.kernel.body);
  check_section(built.kernel.epilogue, reparsed.kernel.epilogue);

  // The re-parsed kernel derives the identical profile.
  PrecisionOptions popts;
  popts.enabled = true;
  popts.emulation_instructions = options.emulation_instructions;
  DiagnosticEngine engine;
  const Dataflow dataflow(reparsed.kernel);
  const PrecisionProfile reprofile =
      run_precision_dataflow_pass(reparsed.kernel, dataflow, popts, engine);
  ASSERT_TRUE(reprofile.derived);
  EXPECT_EQ(reprofile.render_json(), built.precision.render_json());
}

TEST(PrecisionDataflow, StaticBoundStraddlesTheFig4Gap) {
  // The round-split and truncate-split kernels differ by exactly the
  // paper's Fig. 4 gap: the statically derived worst-case bound of the
  // round kernel must sit strictly below the truncate kernel's.
  BuildOptions round;
  round.k_iterations = 8;
  BuildOptions truncate = round;
  truncate.split = core::SplitMethod::kTruncateSplit;
  const BuiltKernel round_built = build_egemm_kernel(round);
  const BuiltKernel trunc_built = build_egemm_kernel(truncate);
  ASSERT_TRUE(round_built.precision.derived);
  ASSERT_TRUE(trunc_built.precision.derived);

  core::BoundInputs in;
  in.k = 256;
  in.a_scale = 1.0;
  in.b_scale = 1.0;
  const double round_bound =
      verify::static_profile_bound(round_built.precision, in).worst_abs;
  const double trunc_bound =
      verify::static_profile_bound(trunc_built.precision, in).worst_abs;
  EXPECT_GT(round_bound, 0.0);
  EXPECT_LT(round_bound, trunc_bound);

  // And both hand-model projections dominate their derived bounds.
  EXPECT_TRUE(
      verify::cross_check_static_profile(round_built.precision, in).dominates);
  EXPECT_TRUE(
      verify::cross_check_static_profile(trunc_built.precision, in).dominates);
}

TEST(PrecisionDataflow, FromStaticProfileMapsTermsOntoThePath) {
  BuildOptions options;
  options.k_iterations = 8;
  const BuiltKernel built = build_egemm_kernel(options);
  const core::SchemeProfile path = verify::from_static_profile(built.precision);
  EXPECT_EQ(path.split, core::SplitMethod::kRoundSplit);
  EXPECT_EQ(path.planes, 2);
  EXPECT_TRUE(path.term(0, 0));  // hi x hi
  EXPECT_TRUE(path.term(0, 1));  // hi x lo
  EXPECT_TRUE(path.term(1, 0));  // lo x hi
  EXPECT_TRUE(path.term(1, 1));  // lo x lo
  EXPECT_EQ(core::classify_scheme(path), core::SchemeId::kRound2);

  BuildOptions half = options;
  half.emulation_instructions = 1;
  const core::SchemeProfile half_path =
      verify::from_static_profile(build_egemm_kernel(half).precision);
  // A half-only kernel reads the raw binary16 inputs: one plane, one term.
  EXPECT_EQ(half_path.planes, 1);
  EXPECT_EQ(half_path.term_count(), 1);
  EXPECT_EQ(core::classify_scheme(half_path), core::SchemeId::kHalf);
}

TEST(PrecisionDataflow, DerivedConstantsMatchTheConventions) {
  EXPECT_DOUBLE_EQ(
      analysis::derived_residual_rel(Rounding::kRoundNearest, 2), 0x1.0p-22);
  EXPECT_DOUBLE_EQ(analysis::derived_residual_rel(Rounding::kTruncate, 2),
                   0x1.0p-21);
  EXPECT_DOUBLE_EQ(analysis::derived_residual_rel(Rounding::kHalfDirect, 1),
                   0x1.0p-11);
  EXPECT_EQ(analysis::effective_bits(0x1.0p-22), 21);
  EXPECT_EQ(analysis::effective_bits(0x1.0p-21), 20);
  EXPECT_EQ(analysis::effective_bits(0x1.0p-11), 10);
  EXPECT_EQ(analysis::effective_bits(0x1.0p-33), 24);  // binary32 ceiling
  EXPECT_EQ(analysis::documented_operation_bits(1), 10);
  EXPECT_EQ(analysis::documented_operation_bits(4), 21);
  EXPECT_EQ(analysis::documented_operation_bits(9), 24);
  EXPECT_EQ(analysis::documented_operation_bits(16), 21);
}

}  // namespace
