#include "verify/error_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace egemm::verify {

namespace {

constexpr double kU32 = 0x1.0p-24;  // binary32 unit roundoff

}  // namespace

core::SchemeProfile from_static_profile(
    const sass::analysis::PrecisionProfile& profile) noexcept {
  core::SchemeProfile path;
  if (!profile.derived) return path;
  path.split = profile.split;
  if (profile.half_only || profile.planes <= 1) {
    path.planes = 1;
    path.term_mask = 0x1;
    return path;
  }
  path.planes = std::min(profile.planes, 3);
  path.term_mask = 0;
  for (const sass::analysis::TermInfo& term : profile.terms) {
    // The static pass numbers planes by depth already (0 = hi); terms on
    // planes deeper than the modeled stack project onto the deepest one.
    const int a = std::min(term.a_plane, path.planes - 1);
    const int b = std::min(term.b_plane, path.planes - 1);
    path.set_term(a, b, true);
  }
  return path;
}

core::ErrorBound static_profile_bound(
    const sass::analysis::PrecisionProfile& profile,
    const core::BoundInputs& in) noexcept {
  core::ErrorBound bound;
  if (!profile.derived || in.k == 0) return bound;
  const double k = static_cast<double>(in.k);

  // The derived constants are relative; re-attach the subnormal floors the
  // hand model carries (the binary16 quantum does not scale with |x|).
  const double residual_floor =
      profile.rounding == sass::Rounding::kTruncate ? 0x1.0p-24 : 0x1.0p-25;
  auto residual = [&](double scale) {
    return std::max(scale * profile.rel_residual, residual_floor);
  };
  // Magnitude of plane p: the hi plane sits at the input scale (plus the
  // RN16 overshoot); each deeper plane is one lo-plane factor down.
  auto plane_mag = [&](int plane, double scale) {
    if (plane == 0) return core::hi_plane_bound(scale);
    return std::max(scale * std::pow(profile.lo_plane_rel, plane), 0x1.0p-24);
  };

  const double eps_a = residual(in.a_scale);
  const double eps_b = residual(in.b_scale);
  bound.split_term =
      k * (eps_a * in.b_scale + eps_b * in.a_scale + eps_a * eps_b);

  double dropped = 0.0;
  double product_mag = 0.0;
  int combos = 0;
  for (int a = 0; a < profile.planes; ++a) {
    for (int b = 0; b < profile.planes; ++b) {
      const double mag =
          plane_mag(a, in.a_scale) * plane_mag(b, in.b_scale);
      if (profile.term_computed(a, b)) {
        product_mag += mag;
        ++combos;
      } else {
        dropped += mag;
      }
    }
  }
  bound.dropped_term = k * dropped;

  const double n_adds = static_cast<double>(combos) * k;
  const double nu = n_adds * kU32;
  if (nu >= 0.5) {
    bound.accum_term = std::numeric_limits<double>::infinity();
  } else {
    const double magnitude_sum = in.c_abs + k * product_mag;
    bound.accum_term =
        (nu / (1.0 - nu)) * magnitude_sum + n_adds * 0x1.0p-149;
  }

  bound.worst_abs = (bound.split_term + bound.dropped_term +
                     bound.accum_term) *
                        (1.0 + 0x1.0p-20) +
                    0x1.0p-300;
  return bound;  // expected_abs stays 0: worst-case derivation only
}

StaticCrossCheck cross_check_static_profile(
    const sass::analysis::PrecisionProfile& profile,
    const core::BoundInputs& in) noexcept {
  StaticCrossCheck check;
  if (!profile.derived) return check;
  check.checked = true;
  check.hand_worst_abs =
      core::scheme_element_bound(from_static_profile(profile), in).worst_abs;
  check.derived_worst_abs = static_profile_bound(profile, in).worst_abs;
  check.dominates = check.hand_worst_abs >= check.derived_worst_abs;
  return check;
}

StaticCrossCheck cross_check_static_profile(
    const sass::analysis::PrecisionProfile& profile, core::SchemeId claimed,
    const core::BoundInputs& in) noexcept {
  StaticCrossCheck check;
  if (!profile.derived) return check;
  check.checked = true;
  check.scheme_match =
      core::classify_scheme(from_static_profile(profile)) == claimed;
  check.hand_worst_abs = core::scheme_bound(claimed, in).worst_abs;
  check.derived_worst_abs = static_profile_bound(profile, in).worst_abs;
  check.dominates = check.hand_worst_abs >= check.derived_worst_abs;
  return check;
}

}  // namespace egemm::verify
