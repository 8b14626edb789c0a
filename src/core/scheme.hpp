#pragma once
// The emulation-scheme ladder (DESIGN.md §16).
//
// A scheme describes one way of emulating a binary32 GEMM on binary16
// multiply hardware: how each input decomposes into binary16 planes
// (split method + plane count), which plane-pair products the kernel
// executes (the term coverage grid), and the sound a-priori error bound
// that follows. The ladder orders the known schemes from cheapest to
// most precise *representation*:
//
//   half            raw RN16 inputs, 1 term        (cuBLAS-TC-Half)
//   markidis        2-plane truncate, 3 terms      (Markidis [20])
//   truncate-2term  2-plane truncate, 4 terms      (Alg. 1, Fig. 4a)
//   round-2term     2-plane round, 4 terms         (EGEMM-TC, Fig. 4b)
//   slice-3term     3-plane truncate slices, 9 terms  (Ozaki-style words)
//   recovery-3term  3-plane round, 9 terms         (Ootomo-Yokota FP32
//                                                   recovery)
//
// split_bits (effective significand bits captured by the decomposition)
// increases strictly along the ladder; the *total* error bound does not
// always follow it, because binary32 accumulation grows with
// term_count * k -- at large k a 9-term rung can carry a looser sound
// bound than a 4-term one. The accuracy-contract resolver therefore
// evaluates every rung's full bound instead of trusting the order.
//
// This header is the single source of truth for scheme identity and
// recipe: GEMM plans run a rung's descriptor terms as they stand, and the
// obs counters, the differential harness paths, and the verify-side hand
// bounds all classify against it.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "core/split.hpp"

namespace egemm::core {

/// Rungs of the emulation-precision ladder, cheapest first.
enum class SchemeId : int {
  kHalf = 0,   ///< raw RN16 inputs, single product
  kMarkidis,   ///< 2-plane truncate split, Alo x Blo dropped
  kTruncate2,  ///< 2-plane truncate split, all 4 terms
  kRound2,     ///< 2-plane round split, all 4 terms (the paper's scheme)
  kSlice3,     ///< 3-plane truncate slices, all 9 terms
  /// 3-plane round split, all 9 terms: each input decomposes *exactly*
  /// into three binary16 planes. Measured finding (Split3.* in
  /// tests/test_extensions.cpp, bench_ablation_split): for inputs in the
  /// usual [-1, 1] range this rung is BIT-IDENTICAL to round-2term. The hi
  /// and mid planes coincide with the two-way hi/lo, and the third plane's
  /// products sit ~2^-23 below the operand scale, under the binary32
  /// accumulator's ulp, so they are absorbed. Past 21 bits the precision
  /// bottleneck is the *accumulator*, not the split -- exactly why
  /// integer-accumulating schemes (Ozaki-style int8 emulation) exist.
  kRecovery3,
  kCount
};

inline constexpr std::size_t kSchemeCount =
    static_cast<std::size_t>(SchemeId::kCount);

/// One executed plane-pair product, by split depth (0 = hi plane; depth d
/// is the residual after d split levels).
struct SchemeTerm {
  int a_depth = 0;
  int b_depth = 0;
};

inline constexpr int kMaxSchemeTerms = 9;

/// Static description of one ladder rung: everything that decides its
/// bits and its bound, and nothing derivable from the rest.
struct SchemeDescriptor {
  SchemeId id = SchemeId::kRound2;
  const char* name = "";  ///< stable identifier (replay descriptors, CLI)
  SplitMethod split = SplitMethod::kRoundSplit;
  /// Planes each input is split into, by split depth (0 = hi). One plane
  /// is the raw binary16 input, rounded with `split`'s mode (half).
  int planes = 2;
  /// Executed terms in kernel execution order (low-order products first
  /// for the multi-plane rungs, so small contributions accumulate before
  /// large ones); its size is the rung's term count.
  std::span<const SchemeTerm> terms;
  /// Significand bits the decomposition captures; the operation precision
  /// is min(split_bits, 24), capped by the binary32 accumulator.
  int split_bits = 21;
};

/// The descriptor for a rung. `id` must be a real rung, not kCount.
const SchemeDescriptor& scheme(SchemeId id) noexcept;

const char* scheme_name(SchemeId id) noexcept;

/// Inverse of scheme_name; nullopt for unknown names.
std::optional<SchemeId> parse_scheme_name(std::string_view name) noexcept;

/// All rungs in ladder order.
std::span<const SchemeId> scheme_ladder() noexcept;

/// Numeric profile of an emulation path: split method, plane count (one
/// plane is the raw binary16 input), and the term coverage grid. This is
/// what the error model consumes and what statically derived kernel
/// profiles are classified against. Term (a_depth, b_depth) lives at bit
/// a_depth * planes + b_depth of term_mask.
struct SchemeProfile {
  SplitMethod split = SplitMethod::kRoundSplit;
  int planes = 2;
  std::uint32_t term_mask = 0xF;

  bool term(int a_depth, int b_depth) const noexcept {
    return (term_mask >> (a_depth * planes + b_depth) & 1u) != 0;
  }
  void set_term(int a_depth, int b_depth, bool computed) noexcept {
    const std::uint32_t bit = 1u << (a_depth * planes + b_depth);
    term_mask = computed ? (term_mask | bit) : (term_mask & ~bit);
  }
  /// Executed products per output element per k-step.
  int term_count() const noexcept;
};

/// The profile a rung's descriptor induces.
SchemeProfile scheme_profile(SchemeId id) noexcept;

/// Maps a profile back onto the ladder: the rung whose split method, plane
/// count and term grid all match, or nullopt when the profile matches no
/// named rung (e.g. a mis-derived kernel).
std::optional<SchemeId> classify_scheme(const SchemeProfile& profile) noexcept;

// -- a-priori error bounds (DESIGN.md §11/§16) -------------------------------

/// Scale context of one output element D[i][j].
struct BoundInputs {
  std::size_t k = 0;
  double a_scale = 0.0;  ///< max |A[i][t]| over the element's row
  double b_scale = 0.0;  ///< max |B[t][j]| over the element's column
  double c_abs = 0.0;    ///< |C[i][j]|, 0 when C is absent
};

struct ErrorBound {
  double split_term = 0.0;    ///< plane representation error
  double dropped_term = 0.0;  ///< products the scheme does not compute
  double accum_term = 0.0;    ///< binary32 accumulation (Higham gamma_n)
  double worst_abs = 0.0;     ///< sound total
  double expected_abs = 0.0;  ///< statistical estimate; NOT sound
};

/// Per-element sound a-priori bound for a profile. Requires every |A|, |B|
/// input magnitude to be below the binary16 overflow threshold (the split
/// itself saturates beyond it).
ErrorBound scheme_element_bound(const SchemeProfile& profile,
                                const BoundInputs& in) noexcept;

/// scheme_element_bound on the rung's own profile.
ErrorBound scheme_bound(SchemeId id, const BoundInputs& in) noexcept;

// -- accuracy contracts ------------------------------------------------------

/// A caller-stated element-wise accuracy requirement: the planner must
/// pick a scheme whose sound a-priori bound is at most max_abs_error for
/// the given scale context. Scales that are zero or negative mean "derive
/// from the data" at the API layers that can see the matrices.
struct AccuracyContract {
  double max_abs_error = 0.0;
  double a_scale = 0.0;
  double b_scale = 0.0;
  double c_abs = 0.0;
};

/// One rung's verdict against a contract.
struct SchemeRungBound {
  SchemeId scheme = SchemeId::kHalf;
  double worst_abs = 0.0;
  bool feasible = false;
};

struct ContractResolution {
  bool feasible = false;
  /// The selected rung: cheapest (fewest terms) among the feasible ones,
  /// ties broken by the tighter bound, then by ladder order.
  SchemeId scheme = SchemeId::kRound2;
  ErrorBound bound;  ///< the selected rung's bound (zero when infeasible)
  /// The tightest rung overall -- what an infeasibility error should name.
  SchemeId tightest = SchemeId::kRound2;
  double tightest_worst_abs = 0.0;
  double target = 0.0;
  std::array<SchemeRungBound, kSchemeCount> rungs{};
};

/// Evaluates every rung's full bound against the contract and selects the
/// cheapest provably sufficient one. A non-positive max_abs_error is
/// always infeasible. k == 0 (D = C exactly) is feasible on every rung.
ContractResolution resolve_contract(const AccuracyContract& contract,
                                    std::size_t k) noexcept;

/// The rung a resolution selected. Throws std::invalid_argument when it is
/// infeasible, with a message that names the resolved target and the
/// tightest rung's proven bound. This is the one place the infeasible
/// contract error is raised: every contract entry point (gemm_ex,
/// gemm_grouped, the apps) resolves, passes the resolution through here,
/// and only then plans the rung.
SchemeId require_feasible(const ContractResolution& resolution);

}  // namespace egemm::core
