#pragma once
// Differential accuracy runner (DESIGN.md §11): pits every functional GEMM
// path against the double-double oracle and asserts each lands inside its
// a-priori error-model bound, element by element.
//
// Three kinds of checks per fuzz case:
//  * engine differential -- the case's emulation scheme (FuzzCase::scheme,
//    round-robined across the whole ladder by fuzz_plan) on the packed
//    engine must be bitwise identical to the scalar oracle
//    (verify/reference_execute.hpp), for every input class including
//    non-finite values;
//  * oracle differential -- for finite cases, each path's per-element error
//    against the oracle must stay below its own scheme's worst-case bound
//    (a violation is a harness failure: either the kernel or the model is
//    wrong, and both are bugs);
//  * special-value cases (any NaN/Inf or split-overflow input) skip the
//    numeric bounds -- IEEE propagation makes the "exact" value a
//    convention, not a number -- but still run every path to prove the
//    kernels neither crash nor disagree with the scalar oracle.
//
// Every reported failure carries the replayable one-line case descriptor
// (verify/fuzzer.hpp) so a nightly fuzz hit can be turned into a corpus
// entry under tests/corpus/ verbatim.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fp/error_stats.hpp"
#include "gemm/matrix.hpp"
#include "verify/error_model.hpp"
#include "verify/fuzzer.hpp"

namespace egemm::gemm {
class GemmContext;  // gemm/plan.hpp: plan cache + reusable workspaces
}

namespace egemm::verify {

/// The functional paths under differential test. Every path realizes one
/// ladder rung (core/scheme.hpp); kEgemmRound and kSeparatePasses share the
/// round-2term rung through different pass orders.
enum class Path : int {
  kEgemmRound = 0,  ///< EGEMM-TC: round-split, all 4 terms (packed engine)
  kEgemmTruncate,   ///< ablation: Alg. 1 with truncate-split
  kSeparatePasses,  ///< cuBLAS-TC-Emulation: round-split, one pass per term
  kMarkidis,        ///< truncate-split, Alo x Blo dropped
  kTcHalf,          ///< cublasGemmEx with binary16 inputs
  kRecovery3,       ///< 3-term FP32-recovery split (9 emulation products)
  kSlice3,          ///< 3-term truncate multi-word slices (Ozaki-style)
  kCount
};

inline constexpr std::size_t kPathCount = static_cast<std::size_t>(Path::kCount);

const char* path_name(Path path) noexcept;

/// The ladder rung a path realizes (total: every path has one).
core::SchemeId path_scheme(Path path) noexcept;

/// The canonical path realizing a rung (inverse of path_scheme up to the
/// round-2term rung, whose canonical path is kEgemmRound).
Path scheme_path(core::SchemeId scheme) noexcept;

/// The numeric profile the error model uses for a path.
PathProfile path_profile(Path path) noexcept;

/// True when the case's inputs contain a non-finite value or a magnitude
/// at/over the binary16 split-overflow edge: numeric bounds do not apply
/// (IEEE propagation makes the "exact" value a convention, not a number).
bool inputs_special(const FuzzInputs& inputs);

/// Executes a path functionally (against the shared default context).
gemm::Matrix run_path(Path path, const gemm::Matrix& a, const gemm::Matrix& b,
                      const gemm::Matrix* c);

/// run_path against an explicit plan/workspace context, so a long audit
/// reuses split/pack workspaces instead of reallocating them per case.
gemm::Matrix run_path(Path path, gemm::GemmContext& ctx, const gemm::Matrix& a,
                      const gemm::Matrix& b, const gemm::Matrix* c);

/// Per-path measurements for one case (or aggregated over many).
struct PathObservation {
  fp::ErrorStats stats;        ///< vs the oracle
  std::size_t violations = 0;  ///< elements with error > worst-case bound
  double worst_ratio = 0.0;    ///< max over elements of error / bound
  double worst_measured = 0.0; ///< |error| at the worst-ratio element
  double worst_bound = 0.0;    ///< bound at the worst-ratio element

  void merge(const PathObservation& other);
};

struct CaseResult {
  FuzzCase fuzz;
  bool special = false;      ///< non-finite or split-overflow inputs
  bool engine_match = true;  ///< packed == reference_execute, bitwise
  std::array<PathObservation, kPathCount> paths;  ///< empty when special
  double oracle_seconds = 0.0;  ///< wall time in the oracle (0 when special)
  std::array<double, kPathCount> path_seconds{};  ///< wall time per path
};

/// Runs one case end to end (pure in the FuzzCase value).
CaseResult run_case(const FuzzCase& fuzz);

/// run_case against an explicit context. Results are bit-identical to the
/// default-context overload -- plans only cache shape/option resolution,
/// never numerics -- but repeated cases stop paying per-call allocation.
CaseResult run_case(const FuzzCase& fuzz, gemm::GemmContext& ctx);

struct AuditOptions {
  std::uint64_t seed = 1;
  std::size_t cases = 500;
  /// Stop planning new cases once this much wall time elapsed (0 = off);
  /// the report's cases_run says how far the budget reached.
  double time_budget_seconds = 0.0;
  /// Pin every case's engine scheme to one rung (nullopt = fuzz_plan's
  /// round-robin over the full ladder). The CI scheme matrix sets this so
  /// each lane's engine differential soaks one rung.
  std::optional<core::SchemeId> scheme;
};

struct PathSummary {
  PathObservation observed;
  std::string worst_case;  ///< descriptor of the case with the worst ratio
};

struct AuditReport {
  std::uint64_t seed = 0;
  /// Scheme the engine differential ran under: a rung name when
  /// AuditOptions::scheme pinned one, "ladder" for the round-robin.
  std::string engine_scheme = "ladder";
  std::size_t cases_planned = 0;
  std::size_t cases_run = 0;
  std::size_t special_cases = 0;
  std::size_t engine_mismatches = 0;
  std::array<PathSummary, kPathCount> paths;
  /// Per-path stats restricted to kUniform cases (the paper's §7.2 input
  /// distribution). The adversarial kinds saturate every path identically
  /// -- e.g. below-binary16 denormals are dropped by ALL splits -- so the
  /// Fig. 4 round-vs-truncate ordering is measured where it is defined.
  std::array<fp::ErrorStats, kPathCount> uniform_stats;
  /// Replayable descriptors of every case with a violation or engine
  /// mismatch (capped at 64 entries).
  std::vector<std::string> failing_cases;
  /// Wall-time breakdown of the audit (observability, DESIGN.md §12): how
  /// the budget splits between the oracle and each candidate path.
  double wall_seconds = 0.0;
  double oracle_seconds = 0.0;
  std::array<double, kPathCount> path_seconds{};

  std::size_t total_violations() const noexcept;
  /// The paper's §3.2 ordering as measured on the uniform kind: EGEMM-TC's
  /// round-split max ulp error strictly below Markidis' truncate-split on
  /// the same inputs.
  bool round_below_markidis() const noexcept;
  bool ok() const noexcept {
    return engine_mismatches == 0 && total_violations() == 0;
  }
};

AuditReport run_audit(const AuditOptions& options);

/// Persists the report as a small self-describing JSON document (the
/// accuracy analogue of BENCH_micro.json; consumed by the nightly
/// accuracy-fuzz CI job).
bool write_audit_json(const std::string& path, const AuditReport& report,
                      const std::string& git_sha);

}  // namespace egemm::verify
