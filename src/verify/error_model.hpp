#pragma once
// A-priori error bounds for emulated GEMM paths (DESIGN.md §11/§16).
//
// Given a path's numeric profile -- split method, plane count (one plane
// is the raw binary16 input), which of the scheme's plane-pair terms it
// executes -- and an output element's scale
// context (k, row/column magnitudes, |C|), the model emits
//
//   worst_abs     a sound per-element bound on |candidate - exact|, the sum
//                 of three components derived from the scheme's
//                 operation-precision profile (§3.2, DESIGN.md §16):
//                   split_term    representation error of the planes,
//                   dropped_term  split products the path does not compute,
//                   accum_term    binary32 pair-sum accumulation (Higham's
//                                 gamma_n over the product magnitudes);
//   expected_abs  a statistical estimate of the typical max error under
//                 random inputs -- NOT sound, used only to make the paper's
//                 round-vs-truncate gap executable: truncate-split residuals
//                 are one-signed, so their contribution grows linearly in k
//                 while round-split residuals random-walk at sqrt(k); a
//                 truncate path therefore lands far above the round-split
//                 expected bound on cancellation-free inputs.
//
// The bound engine itself lives in core/scheme.hpp
// (core::scheme_element_bound; the plan layer and the accuracy-contract
// resolver need it without linking the verify library); this header adds
// the bridge to the statically derived EG5xx kernel profiles, which core
// cannot see.
//
// The differential runner asserts measured <= worst_abs element-wise for
// every path on every finite fuzz case; the bounds must hold for ALL
// representable inputs below the binary16 overflow threshold, including
// denormals (hence the subnormal floors from core::split_residual_bound).

#include <cstddef>

#include "core/scheme.hpp"
#include "core/split.hpp"
#include "sass/analysis/precision.hpp"

namespace egemm::verify {

// -- static certification bridge (EG5xx pass, DESIGN.md §14) -----------------
// The precision-dataflow pass derives a kernel's numeric profile from its
// instruction stream; these entry points close the loop between that
// derivation and the hand-written model (core::scheme_element_bound).

/// Maps a statically derived kernel profile onto the scheme profile the
/// hand model consumes, preserving the plane structure up to three planes
/// (terms on deeper planes project onto the deepest modeled one; a
/// half-only kernel is one plane). An underived profile maps to the
/// default all-terms round-split profile.
core::SchemeProfile from_static_profile(
    const sass::analysis::PrecisionProfile& profile) noexcept;

/// core::scheme_element_bound analogue computed from the statically
/// derived constants (profile.rel_residual / lo_plane_rel, the kernel's own term grid)
/// instead of the hand-coded core::split_* bounds. expected_abs is left 0:
/// the static derivation is worst-case only.
core::ErrorBound static_profile_bound(
    const sass::analysis::PrecisionProfile& profile,
    const core::BoundInputs& in) noexcept;

/// Cross-check: the hand-written a-priori bound must dominate (>=) the
/// statically derived bound for the same element context -- otherwise the
/// error model promises less error than the kernel's instruction stream
/// justifies. `checked` is false when the profile was never derived.
/// `scheme_match` is false when the kernel's derived profile does not
/// classify as the scheme the caller claimed it implements (only the
/// scheme-aware overload sets it).
struct StaticCrossCheck {
  bool checked = false;
  bool dominates = false;
  bool scheme_match = true;
  double hand_worst_abs = 0.0;
  double derived_worst_abs = 0.0;
};
StaticCrossCheck cross_check_static_profile(
    const sass::analysis::PrecisionProfile& profile,
    const core::BoundInputs& in) noexcept;

/// Scheme-aware cross-check: additionally verifies that the kernel's
/// derived profile classifies as `claimed` on the ladder, and compares the
/// claimed rung's hand bound (not the derived profile's projection)
/// against the statically derived one -- the certification path for every
/// new rung.
StaticCrossCheck cross_check_static_profile(
    const sass::analysis::PrecisionProfile& profile, core::SchemeId claimed,
    const core::BoundInputs& in) noexcept;

}  // namespace egemm::verify
