#include "core/scheme.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace egemm::core {

namespace {

constexpr double kU32 = 0x1.0p-24;  // binary32 unit roundoff

/// Terms of the two-plane all-terms recipe (Alg. 1), execution order:
/// low-order products first so small contributions accumulate before the
/// dominant hi x hi one.
constexpr SchemeTerm kTerms2[] = {{1, 1}, {1, 0}, {0, 1}, {0, 0}};
/// Markidis drops the lo x lo product.
constexpr SchemeTerm kTermsMarkidis[] = {{1, 0}, {0, 1}, {0, 0}};
constexpr SchemeTerm kTermsHalf[] = {{0, 0}};
/// Three-plane recipes accumulate smallest-magnitude terms first, so they
/// are absorbed before the dominant hi x hi product.
constexpr SchemeTerm kTerms3[] = {
    {2, 2}, {2, 1}, {1, 2}, {2, 0}, {1, 1}, {0, 2}, {1, 0}, {0, 1}, {0, 0},
};
static_assert(std::size(kTerms3) == std::size_t{kMaxSchemeTerms});

// id, name, split method, planes, terms, split_bits
constexpr std::array<SchemeDescriptor, kSchemeCount> kDescriptors{{
    {SchemeId::kHalf, "half", SplitMethod::kRoundSplit, 1, kTermsHalf, 10},
    {SchemeId::kMarkidis, "markidis", SplitMethod::kTruncateSplit, 2,
     kTermsMarkidis, 19},
    {SchemeId::kTruncate2, "truncate-2term", SplitMethod::kTruncateSplit, 2,
     kTerms2, 20},
    {SchemeId::kRound2, "round-2term", SplitMethod::kRoundSplit, 2, kTerms2,
     21},
    {SchemeId::kSlice3, "slice-3term", SplitMethod::kTruncateSplit, 3,
     kTerms3, 30},
    {SchemeId::kRecovery3, "recovery-3term", SplitMethod::kRoundSplit, 3,
     kTerms3, 32},
}};

constexpr std::array<SchemeId, kSchemeCount> kLadder{
    SchemeId::kHalf,      SchemeId::kMarkidis, SchemeId::kTruncate2,
    SchemeId::kRound2,    SchemeId::kSlice3,   SchemeId::kRecovery3,
};

constexpr std::uint32_t grid_mask(int planes) noexcept {
  return (1u << (planes * planes)) - 1u;
}

/// Magnitude bound of the plane at split depth `depth` (0 = hi).
double plane_bound(SplitMethod split, int depth, double scale) noexcept {
  if (depth == 0) return hi_plane_bound(scale);
  return split_plane_bound(split, depth, scale);
}

}  // namespace

const SchemeDescriptor& scheme(SchemeId id) noexcept {
  return kDescriptors[static_cast<std::size_t>(id)];
}

const char* scheme_name(SchemeId id) noexcept { return scheme(id).name; }

std::optional<SchemeId> parse_scheme_name(std::string_view name) noexcept {
  for (const SchemeDescriptor& descriptor : kDescriptors) {
    if (name == descriptor.name) return descriptor.id;
  }
  return std::nullopt;
}

std::span<const SchemeId> scheme_ladder() noexcept { return kLadder; }

int SchemeProfile::term_count() const noexcept {
  return std::popcount(term_mask & grid_mask(planes));
}

SchemeProfile scheme_profile(SchemeId id) noexcept {
  const SchemeDescriptor& descriptor = scheme(id);
  SchemeProfile profile;
  profile.split = descriptor.split;
  profile.planes = descriptor.planes;
  profile.term_mask = 0;
  for (const SchemeTerm& term : descriptor.terms) {
    profile.set_term(term.a_depth, term.b_depth, true);
  }
  return profile;
}

std::optional<SchemeId> classify_scheme(
    const SchemeProfile& profile) noexcept {
  const std::uint32_t mask = profile.term_mask & grid_mask(profile.planes);
  for (SchemeId id : kLadder) {
    const SchemeProfile rung = scheme_profile(id);
    // The split method participates even for the half rung: a truncating
    // raw-binary16 kernel does not satisfy kHalf's RN16 bound and must be
    // flagged as a mismatch, not silently accepted.
    if (rung.split == profile.split && rung.planes == profile.planes &&
        rung.term_mask == mask) {
      return id;
    }
  }
  return std::nullopt;
}

ErrorBound scheme_element_bound(const SchemeProfile& profile,
                                const BoundInputs& in) noexcept {
  ErrorBound bound;
  const double k = static_cast<double>(in.k);
  if (in.k == 0) {
    // D = C exactly: every scheme copies C through untouched.
    return bound;
  }

  const double eps_a =
      split_residual_bound_planes(profile.split, profile.planes, in.a_scale);
  const double eps_b =
      split_residual_bound_planes(profile.split, profile.planes, in.b_scale);
  const int planes = profile.planes;
  std::array<double, 3> mag_a{};
  std::array<double, 3> mag_b{};
  for (int d = 0; d < planes; ++d) {
    const auto di = static_cast<std::size_t>(d);
    mag_a[di] = plane_bound(profile.split, d, in.a_scale);
    mag_b[di] = plane_bound(profile.split, d, in.b_scale);
  }

  // Representation: each term's computed planes multiply out to
  // (a - ra)(b - rb), so the per-term slip against the exact product is
  // ra*b + rb*a - ra*rb.
  bound.split_term = k * (eps_a * in.b_scale + eps_b * in.a_scale +
                          eps_a * eps_b);

  // Accumulation magnitude over the computed plane-pair grid, and the
  // products the scheme never computes (Markidis drops Alo x Blo). The
  // a-major iteration keeps the two-plane sums bit-identical to the
  // pre-ladder hand model.
  double dropped = 0.0;
  double product_mag = 0.0;
  for (int a = 0; a < planes; ++a) {
    for (int b = 0; b < planes; ++b) {
      const double mag = mag_a[static_cast<std::size_t>(a)] *
                         mag_b[static_cast<std::size_t>(b)];
      if (profile.term(a, b)) {
        product_mag += mag;
      } else {
        dropped += mag;
      }
    }
  }
  bound.dropped_term = k * dropped;

  // Accumulation: term_count * k exact products summed in binary32 in some
  // association (pair sums chained onto C). Higham's gamma_n over the
  // magnitude sum is association-independent, so one bound covers the
  // fused, separate-pass, and pair-sum orders alike.
  const double n_adds = static_cast<double>(profile.term_count()) * k;
  const double nu = n_adds * kU32;
  if (nu >= 0.5) {
    // gamma_n degenerates; no shape in the harness gets near this (it
    // needs term_count * k > 2^23), but stay sound if one ever does.
    bound.accum_term = std::numeric_limits<double>::infinity();
  } else {
    const double magnitude_sum = in.c_abs + k * product_mag;
    bound.accum_term =
        (nu / (1.0 - nu)) * magnitude_sum + n_adds * 0x1.0p-149;
  }

  // Sound total, with a 2^-20 relative pad absorbing the oracle's 2^-53
  // collapse and the binary64 arithmetic of the measurement itself.
  bound.worst_abs = (bound.split_term + bound.dropped_term +
                     bound.accum_term) *
                        (1.0 + 0x1.0p-20) +
                    0x1.0p-300;

  // Statistical estimate (NOT sound): typical input magnitude scale/2,
  // round-split residuals random-walk at sqrt(k), truncate-split residuals
  // are one-signed and accumulate linearly at ~1/4 of the worst case --
  // the executable form of the paper's Fig. 4 round-vs-truncate gap.
  const double tau =
      0.5 * (eps_a * in.b_scale + eps_b * in.a_scale);  // typical per-term
  const bool one_signed = profile.split == SplitMethod::kTruncateSplit;
  const double split_exp =
      one_signed ? k * tau * 0.25 : std::sqrt(k) * tau;
  const double dropped_exp = one_signed ? k * dropped * 0.0625
                                        : std::sqrt(k) * dropped * 0.25;
  const double accum_exp =
      kU32 * std::sqrt(n_adds) * (in.c_abs + k * product_mag) * 0.5;
  bound.expected_abs = split_exp + dropped_exp + accum_exp;
  return bound;
}

ErrorBound scheme_bound(SchemeId id, const BoundInputs& in) noexcept {
  return scheme_element_bound(scheme_profile(id), in);
}

ContractResolution resolve_contract(const AccuracyContract& contract,
                                    std::size_t k) noexcept {
  ContractResolution resolution;
  BoundInputs in;
  in.k = k;
  in.a_scale = std::max(contract.a_scale, 0.0);
  in.b_scale = std::max(contract.b_scale, 0.0);
  in.c_abs = std::max(contract.c_abs, 0.0);
  resolution.target = contract.max_abs_error;

  bool have_selected = false;
  int selected_terms = 0;
  double tightest = std::numeric_limits<double>::infinity();
  for (SchemeId id : kLadder) {
    const std::size_t index = static_cast<std::size_t>(id);
    const ErrorBound bound = scheme_bound(id, in);
    SchemeRungBound& rung = resolution.rungs[index];
    rung.scheme = id;
    rung.worst_abs = bound.worst_abs;
    rung.feasible = resolution.target > 0.0 &&
                    bound.worst_abs <= resolution.target;
    if (bound.worst_abs < tightest) {
      tightest = bound.worst_abs;
      resolution.tightest = id;
    }
    if (!rung.feasible) continue;
    const auto terms = static_cast<int>(scheme(id).terms.size());
    // Cheapest feasible rung: fewest executed terms, ties broken by the
    // tighter bound; strict < keeps ladder order as the final tiebreak.
    if (!have_selected || terms < selected_terms ||
        (terms == selected_terms &&
         bound.worst_abs < resolution.bound.worst_abs)) {
      have_selected = true;
      selected_terms = terms;
      resolution.feasible = true;
      resolution.scheme = id;
      resolution.bound = bound;
    }
  }
  resolution.tightest_worst_abs = tightest;
  return resolution;
}

SchemeId require_feasible(const ContractResolution& resolution) {
  if (resolution.feasible) return resolution.scheme;
  char message[192];
  std::snprintf(message, sizeof(message),
                "no emulation scheme meets the accuracy contract: target "
                "%.6g, tightest rung (%s) only proves %.6g",
                resolution.target, scheme_name(resolution.tightest),
                resolution.tightest_worst_abs);
  throw std::invalid_argument(message);
}

}  // namespace egemm::core
