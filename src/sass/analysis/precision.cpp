#include "sass/analysis/precision.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sass/codegen.hpp"

namespace egemm::sass::analysis {

namespace {

/// HMMA.1688 reduces 8 k-lanes per instruction.
constexpr std::uint64_t kHmmaKLanes = 8;

std::uint8_t rounding_bit(Rounding rounding) noexcept {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(rounding));
}

/// The abstract value one register definition (or the shared staging
/// region) carries. A flat join-semilattice per kind; kScalar (addressing
/// state, loop counters, zero-init) is numeric-neutral and joins into any
/// payload kind without conflict.
struct AbsVal {
  enum class Kind : std::uint8_t {
    kBottom,    ///< no information yet (fixpoint start)
    kScalar,    ///< non-numeric payload
    kPlanes,    ///< split-plane data (masks + rounding provenance)
    kAccum,     ///< accumulator (set of folded split-product terms)
    kConflict,  ///< planes and accumulator data merged -- a routing bug
  };
  Kind kind = Kind::kBottom;
  std::uint8_t a_planes = 0;
  std::uint8_t b_planes = 0;
  std::uint8_t roundings = 0;  ///< OR of rounding_bit() per producing split
  std::uint32_t term_mask = 0;

  /// this = this join other; returns true when the value changed.
  bool join(const AbsVal& other) {
    if (other.kind == Kind::kBottom || kind == Kind::kConflict) return false;
    if (kind == Kind::kBottom || kind == Kind::kScalar) {
      const bool changed = *this != other;
      if (changed) *this = other;
      return changed;
    }
    if (other.kind == Kind::kScalar) return false;
    if (other.kind == Kind::kConflict || other.kind != kind) {
      kind = Kind::kConflict;
      return true;
    }
    bool changed = false;
    auto merge_mask = [&changed](auto& dst, auto src) {
      if ((dst | src) != dst) {
        dst |= src;
        changed = true;
      }
    };
    merge_mask(a_planes, other.a_planes);
    merge_mask(b_planes, other.b_planes);
    merge_mask(roundings, other.roundings);
    merge_mask(term_mask, other.term_mask);
    return changed;
  }

  friend bool operator==(const AbsVal&, const AbsVal&) = default;
};

std::string term_text(int a_plane, int b_plane) {
  return "A" + std::to_string(a_plane) + "xB" + std::to_string(b_plane);
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

bool PrecisionProfile::term_computed(int a_plane, int b_plane) const noexcept {
  if (planes <= 0 || a_plane < 0 || b_plane < 0 || a_plane >= planes ||
      b_plane >= planes) {
    return false;
  }
  return ((term_mask >> (a_plane * planes + b_plane)) & 1u) != 0;
}

std::string PrecisionProfile::describe() const {
  if (!derived) return "precision profile: not derived (untagged kernel)";
  std::string out = "precision profile: " +
                    std::string(core::split_method_name(split)) + " x" +
                    std::to_string(planes) + " (" + rounding_name(rounding) +
                    "), " + std::to_string(operation_bits) +
                    " operation bits (A " + std::to_string(derived_bits_a) +
                    ", B " + std::to_string(derived_bits_b) +
                    "), rel residual " + json_number(rel_residual) + "\n";
  for (const TermInfo& term : terms) {
    out += "  term " + term_text(term.a_plane, term.b_plane) + ": " +
           std::to_string(term.k_lanes_per_trip) +
           " k-lanes/trip, weight " + json_number(term.rel_weight) + "\n";
  }
  out += "  k per term " + std::to_string(k_per_term) +
         ", adds per element " + std::to_string(adds_per_element) + "\n";
  return out;
}

std::string PrecisionProfile::render_json() const {
  std::string out = "{";
  out += "\"derived\": ";
  out += derived ? "true" : "false";
  if (derived) {
    out += ", \"split\": \"" + std::string(core::split_method_name(split)) +
           "\"";
    out += ", \"rounding\": \"" + std::string(rounding_name(rounding)) + "\"";
    out += ", \"half_only\": ";
    out += half_only ? "true" : "false";
    out += ", \"planes\": " + std::to_string(planes);
    out += ", \"operation_bits\": " + std::to_string(operation_bits);
    out += ", \"derived_bits_a\": " + std::to_string(derived_bits_a);
    out += ", \"derived_bits_b\": " + std::to_string(derived_bits_b);
    out += ", \"rel_residual\": " + json_number(rel_residual);
    out += ", \"lo_plane_rel\": " + json_number(lo_plane_rel);
    out += ", \"k_per_term\": " + std::to_string(k_per_term);
    out += ", \"adds_per_element\": " + std::to_string(adds_per_element);
    out += ", \"terms\": [";
    for (std::size_t i = 0; i < terms.size(); ++i) {
      if (i != 0) out += ", ";
      out += "{\"a_plane\": " + std::to_string(terms[i].a_plane) +
             ", \"b_plane\": " + std::to_string(terms[i].b_plane) +
             ", \"k_lanes_per_trip\": " +
             std::to_string(terms[i].k_lanes_per_trip) +
             ", \"rel_weight\": " + json_number(terms[i].rel_weight) + "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

double derived_residual_rel(Rounding rounding, int planes) noexcept {
  if (planes < 1) return 1.0;
  switch (rounding) {
    case Rounding::kHalfDirect:
      // Single RN16 conversion: half-ulp of the 11-bit significand.
      return 0x1p-11;
    case Rounding::kRoundNearest:
      // Each RN16 level keeps 11 bits plus the sign-encoded extra bit of
      // the next residual; p levels leave a residual of 2^-11p.
      return std::ldexp(1.0, -11 * planes);
    case Rounding::kTruncate:
      // RZ16 loses the sign-bit trick: one fewer effective bit per stack.
      return std::ldexp(1.0, 1 - 11 * planes);
    case Rounding::kNone:
      break;
  }
  return 1.0;
}

double derived_lo_plane_rel(Rounding rounding) noexcept {
  switch (rounding) {
    case Rounding::kRoundNearest:
      // |lo| <= RN16(|x - hi|) <= (half-ulp of hi) * (1 + u16).
      return std::ldexp(1.0 + 0x1p-11, -11);
    case Rounding::kTruncate:
      // Truncation residual reaches a full ulp of hi.
      return 0x1p-10;
    case Rounding::kHalfDirect:
    case Rounding::kNone:
      break;
  }
  return 0.0;
}

int effective_bits(double rel) noexcept {
  if (!(rel > 0.0)) return 24;  // exact decomposition: binary32 accumulate
  const int bits = static_cast<int>(std::floor(-std::log2(rel))) - 1;
  return std::clamp(bits, 0, 24);
}

int documented_operation_bits(int emulation_instructions) noexcept {
  switch (emulation_instructions) {
    case 1:
      return 10;
    case 9:
      return 24;
    default:
      return 21;  // Alg. 1 and the Dekker-style variant: 2-plane round split
  }
}

PrecisionProfile run_precision_dataflow_pass(const Kernel& kernel,
                                             const Dataflow& dataflow,
                                             const PrecisionOptions& options,
                                             DiagnosticEngine& engine) {
  PrecisionProfile profile;
  const std::size_t n = dataflow.size();

  // An untagged kernel is opaque: no profile, no diagnostics.
  bool any_tagged = false;
  for (std::size_t i = 0; i < n && !any_tagged; ++i) {
    any_tagged = dataflow.at(i).instr->num.tagged();
  }
  if (!any_tagged) return profile;

  // Decode the claimed scheme; unknown emulation counts fall back to the
  // plane count the tags themselves exhibit.
  const EmulationScheme scheme =
      emulation_scheme(options.emulation_instructions);
  int planes = scheme.known ? scheme.planes : 0;
  const int instrs_per_term = scheme.known ? scheme.instrs_per_term : 1;
  Rounding observed = Rounding::kNone;
  for (std::size_t i = 0; i < n; ++i) {
    const NumericTag& tag = dataflow.at(i).instr->num;
    if (observed == Rounding::kNone && tag.rounding != Rounding::kNone) {
      observed = tag.rounding;
    }
    if (!scheme.known) {
      const std::uint8_t mask = tag.a_planes | tag.b_planes;
      for (int p = 0; p < 8; ++p) {
        if ((mask >> p) & 1u) planes = std::max(planes, p + 1);
      }
      planes = std::max({planes, tag.term_a + 1, tag.term_b + 1});
    }
  }
  if (planes <= 0) planes = 1;
  const Rounding expected = plane_rounding(options.split, planes == 1);

  // -- fixpoint: abstract values per definition site + the shared region --
  std::vector<AbsVal> val(n);
  AbsVal shared;
  auto value_of_src = [&](std::size_t i, const RegRange& src) {
    AbsVal joined;
    for (const std::uint32_t def : dataflow.defs_of_use(i)) {
      const Instr& producer = *dataflow.at(def).instr;
      if (producer.dst.overlaps(src)) joined.join(val[def]);
    }
    return joined;
  };
  auto planes_from_tag = [](const NumericTag& tag) {
    AbsVal value;
    value.kind = AbsVal::Kind::kPlanes;
    value.a_planes = tag.a_planes;
    value.b_planes = tag.b_planes;
    value.roundings = tag.rounding != Rounding::kNone
                          ? rounding_bit(tag.rounding)
                          : std::uint8_t{0};
    return value;
  };
  bool changed = true;
  for (int sweep = 0; changed && sweep < 64; ++sweep) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      const Instr& instr = *dataflow.at(i).instr;
      AbsVal out;
      switch (instr.op) {
        case Op::kLdg:
          // Plane loads are exact: the host split pass already produced
          // the binary16 payload; the rounding happened there.
          out = instr.num.has_planes() ? planes_from_tag(instr.num)
                                       : AbsVal{AbsVal::Kind::kScalar};
          break;
        case Op::kLds:
          if (instr.num.has_planes()) {
            out = planes_from_tag(instr.num);
            if (shared.kind == AbsVal::Kind::kPlanes) {
              out.roundings |= shared.roundings;
            }
          } else if (shared.kind != AbsVal::Kind::kBottom) {
            out = shared;  // untagged LDS: whatever the region holds
          } else {
            out.kind = AbsVal::Kind::kScalar;
          }
          break;
        case Op::kSts: {
          AbsVal staged;
          for (const RegRange& src : instr.srcs) {
            staged.join(value_of_src(i, src));
          }
          if (instr.num.has_planes()) staged.join(planes_from_tag(instr.num));
          if (staged.kind == AbsVal::Kind::kPlanes) {
            changed |= shared.join(staged);
          }
          break;
        }
        case Op::kHmma: {
          out.kind = AbsVal::Kind::kAccum;
          if (instr.srcs.size() >= 3) {
            const AbsVal acc_in = value_of_src(i, instr.srcs[2]);
            if (acc_in.kind == AbsVal::Kind::kAccum) {
              out.term_mask = acc_in.term_mask;
            }
          }
          if (instr.num.has_term() && instr.num.term_a < planes &&
              instr.num.term_b < planes) {
            out.term_mask |=
                1u << (instr.num.term_a * planes + instr.num.term_b);
          }
          break;
        }
        case Op::kMov:
        case Op::kFfma:
        case Op::kIadd:
          for (const RegRange& src : instr.srcs) {
            out.join(value_of_src(i, src));
          }
          if (out.kind == AbsVal::Kind::kBottom) {
            out.kind = AbsVal::Kind::kScalar;
          }
          break;
        default:
          break;  // STG checked post-fixpoint; BAR/BRA/EXIT carry nothing
      }
      if (instr.dst.valid()) changed |= val[i].join(out);
    }
  }

  // -- post-fixpoint checks ----------------------------------------------

  // EG503: every tag must encode the rounding the configured split
  // produces; a mismatch means the kernel multiplies planes the error
  // model's constants do not describe.
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& instr = *dataflow.at(i).instr;
    if (instr.num.rounding == Rounding::kNone ||
        instr.num.rounding == expected) {
      continue;
    }
    engine.report(
        "EG503", Severity::kError, dataflow.at(i).loc,
        "plane data tagged " + std::string(rounding_name(instr.num.rounding)) +
            " but the configured " +
            std::string(core::split_method_name(options.split)) +
            " produces " + std::string(rounding_name(expected)) + " planes");
  }

  // HMMA term routing + per-(accumulator, term) k-lane accounting.
  std::map<std::pair<std::int32_t, int>, std::uint64_t> body_hmma_count;
  std::uint32_t computed_mask = 0;
  bool have_hmma_loc = false;
  SourceLoc first_hmma_loc;
  SourceLoc first_tag_loc;
  bool have_tag_loc = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& instr = *dataflow.at(i).instr;
    if (!have_tag_loc && instr.num.tagged()) {
      first_tag_loc = dataflow.at(i).loc;
      have_tag_loc = true;
    }
    if (instr.op != Op::kHmma || !instr.num.has_term()) continue;
    const SourceLoc loc = dataflow.at(i).loc;
    if (!have_hmma_loc) {
      first_hmma_loc = loc;
      have_hmma_loc = true;
    }
    const int ta = instr.num.term_a;
    const int tb = instr.num.term_b;
    if (ta >= planes || tb >= planes) {
      engine.report("EG502", Severity::kError, loc,
                    "HMMA computes term " + term_text(ta, tb) +
                        " outside the " + std::to_string(planes) +
                        "-plane scheme");
      continue;
    }
    const int term = ta * planes + tb;
    computed_mask |= 1u << term;
    if (instr.srcs.size() >= 2) {
      const AbsVal a_val = value_of_src(i, instr.srcs[0]);
      const AbsVal b_val = value_of_src(i, instr.srcs[1]);
      auto check_side = [&](const AbsVal& value, std::uint8_t AbsVal::*mask,
                            int plane, const char* side) {
        if (value.kind == AbsVal::Kind::kConflict) {
          engine.report("EG502", Severity::kError, loc,
                        std::string(side) +
                            " operand mixes plane and accumulator data");
          return;
        }
        if (value.kind == AbsVal::Kind::kPlanes &&
            ((value.*mask >> plane) & 1u) == 0) {
          engine.report(
              "EG502", Severity::kError, loc,
              "term " + term_text(ta, tb) + " is mis-routed: the " + side +
                  " operand does not carry plane " + std::to_string(plane));
        }
      };
      check_side(a_val, &AbsVal::a_planes, ta, "A");
      check_side(b_val, &AbsVal::b_planes, tb, "B");
    }
    if (loc.section == Section::kBody && instr.dst.valid()) {
      ++body_hmma_count[{instr.dst.index, term}];
    }
  }
  const SourceLoc anchor = have_hmma_loc ? first_hmma_loc : first_tag_loc;

  // LDS must only declare planes some STS actually staged.
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& instr = *dataflow.at(i).instr;
    if (instr.op != Op::kLds || !instr.num.has_planes()) continue;
    const std::uint8_t missing_a =
        shared.kind == AbsVal::Kind::kPlanes
            ? static_cast<std::uint8_t>(instr.num.a_planes & ~shared.a_planes)
            : instr.num.a_planes;
    const std::uint8_t missing_b =
        shared.kind == AbsVal::Kind::kPlanes
            ? static_cast<std::uint8_t>(instr.num.b_planes & ~shared.b_planes)
            : instr.num.b_planes;
    if (missing_a == 0 && missing_b == 0) continue;
    engine.report("EG502", Severity::kError, dataflow.at(i).loc,
                  "LDS consumes plane data no STS ever staged (A mask 0x" +
                      std::to_string(missing_a) + ", B mask 0x" +
                      std::to_string(missing_b) + ")");
  }

  // EG502: the scheme's full term grid must be computed -- the a-priori
  // error model charges every term of the emulation as present.
  for (int term = 0; term < planes * planes; ++term) {
    if ((computed_mask >> term) & 1u) continue;
    engine.report("EG502", Severity::kError, anchor,
                  "split-product term " +
                      term_text(term / planes, term % planes) +
                      " is never computed by any HMMA; the error model "
                      "charges it as computed");
  }

  // EG502: the combine path must commit every computed term -- an epilogue
  // store whose accumulator lacks a term silently drops that product.
  std::set<std::uint32_t> reported_store_masks;
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& instr = *dataflow.at(i).instr;
    if (instr.op != Op::kStg) continue;
    AbsVal stored;
    for (const RegRange& src : instr.srcs) {
      stored.join(value_of_src(i, src));
    }
    if (stored.kind != AbsVal::Kind::kAccum) continue;
    const std::uint32_t dropped = computed_mask & ~stored.term_mask;
    if (dropped == 0 || !reported_store_masks.insert(dropped).second) {
      continue;
    }
    for (int term = 0; term < planes * planes; ++term) {
      if (((dropped >> term) & 1u) == 0) continue;
      engine.report("EG502", Severity::kError, dataflow.at(i).loc,
                    "stored accumulator drops computed term " +
                        term_text(term / planes, term % planes));
    }
  }

  // EG502: every (accumulator, term) pair must cover the reduction
  // uniformly -- a term present on some k-lanes only is a partial product.
  std::uint64_t lanes_per_trip = 0;
  if (!body_hmma_count.empty()) {
    bool uniform = true;
    for (const auto& [key, count] : body_hmma_count) {
      const std::uint64_t lanes =
          count * kHmmaKLanes / static_cast<std::uint64_t>(instrs_per_term);
      if (lanes_per_trip == 0) lanes_per_trip = lanes;
      uniform = uniform && lanes == lanes_per_trip;
    }
    if (!uniform) {
      engine.report("EG502", Severity::kError, anchor,
                    "non-uniform k-lane coverage across (accumulator, term) "
                    "pairs: some split-product terms cover only part of the "
                    "reduction");
    } else if (options.expected_k_lanes_per_trip >= 0 &&
               lanes_per_trip != static_cast<std::uint64_t>(
                                     options.expected_k_lanes_per_trip)) {
      engine.report(
          "EG502", Severity::kError, anchor,
          "each term covers " + std::to_string(lanes_per_trip) +
              " k-lanes per trip; the tiling's reduction expects " +
              std::to_string(options.expected_k_lanes_per_trip));
    }
  }

  // -- derive the profile -------------------------------------------------
  std::uint8_t a_used = 0;
  std::uint8_t b_used = 0;
  for (int term = 0; term < planes * planes; ++term) {
    if (((computed_mask >> term) & 1u) == 0) continue;
    a_used |= static_cast<std::uint8_t>(1u << (term / planes));
    b_used |= static_cast<std::uint8_t>(1u << (term % planes));
  }
  auto leading_planes = [](std::uint8_t mask) {
    int count = 0;
    while ((static_cast<unsigned>(mask) >> count) & 1u) ++count;
    return count;
  };
  const int pa = leading_planes(a_used);
  const int pb = leading_planes(b_used);
  const double res_a = derived_residual_rel(observed, pa);
  const double res_b = derived_residual_rel(observed, pb);

  profile.derived = true;
  profile.rounding = observed;
  profile.planes = planes;
  profile.half_only = planes == 1 && observed == Rounding::kHalfDirect;
  if (observed == Rounding::kTruncate) {
    profile.split = core::SplitMethod::kTruncateSplit;
  } else if (observed == Rounding::kRoundNearest) {
    profile.split = core::SplitMethod::kRoundSplit;
  } else {
    profile.split = options.split;
  }
  profile.term_mask = computed_mask;
  profile.derived_bits_a = effective_bits(res_a);
  profile.derived_bits_b = effective_bits(res_b);
  profile.operation_bits =
      std::min(profile.derived_bits_a, profile.derived_bits_b);
  profile.rel_residual = std::max(res_a, res_b);
  profile.lo_plane_rel = derived_lo_plane_rel(observed);
  profile.k_per_term = lanes_per_trip * kernel.loop_trips;
  profile.adds_per_element =
      static_cast<std::uint64_t>(std::popcount(computed_mask)) *
      profile.k_per_term;
  for (int term = 0; term < planes * planes; ++term) {
    if (((computed_mask >> term) & 1u) == 0) continue;
    TermInfo info;
    info.a_plane = term / planes;
    info.b_plane = term % planes;
    info.k_lanes_per_trip = lanes_per_trip;
    info.rel_weight = std::ldexp(1.0, -11 * (info.a_plane + info.b_plane));
    profile.terms.push_back(info);
  }

  // EG501: the derived operation precision must meet the documented
  // profile (the paper's §3.2 claim the rest of the stack is sold on).
  if (profile.operation_bits < options.documented_bits) {
    engine.report("EG501", Severity::kWarning, anchor,
                  "derived operation precision is " +
                      std::to_string(profile.operation_bits) +
                      " bits, below the documented " +
                      std::to_string(options.documented_bits) +
                      "-bit profile");
  }

  // EG510: the hand-written a-priori constants (core::split_*) must agree
  // with what the instruction stream derives -- at least as large (sound)
  // and no more than 2x (tight enough that model and kernel describe the
  // same scheme). Only the two-plane split has hand constants to check.
  if (options.check_hand_model && planes == 2 &&
      (observed == Rounding::kRoundNearest ||
       observed == Rounding::kTruncate)) {
    const core::SplitMethod method = observed == Rounding::kRoundNearest
                                         ? core::SplitMethod::kRoundSplit
                                         : core::SplitMethod::kTruncateSplit;
    const double hand_res = options.hand_residual_rel >= 0.0
                                ? options.hand_residual_rel
                                : core::split_residual_bound(method, 1.0);
    const double hand_lo = options.hand_lo_plane_rel >= 0.0
                               ? options.hand_lo_plane_rel
                               : core::split_lo_plane_bound(method, 1.0);
    const double derived_res = derived_residual_rel(observed, 2);
    const double derived_lo = derived_lo_plane_rel(observed);
    auto check_constant = [&](const char* name, double hand, double derived) {
      if (hand < derived) {
        engine.report("EG510", Severity::kError, anchor,
                      std::string(name) + " hand constant " +
                          json_number(hand) +
                          " is below the statically derived " +
                          json_number(derived) + ": the a-priori bound is "
                          "unsound for this kernel");
      } else if (hand > 2.0 * derived) {
        engine.report("EG510", Severity::kError, anchor,
                      std::string(name) + " hand constant " +
                          json_number(hand) + " is more than 2x the derived " +
                          json_number(derived) +
                          ": model and kernel describe different schemes");
      }
    };
    check_constant("residual", hand_res, derived_res);
    check_constant("lo-plane", hand_lo, derived_lo);
  }

  return profile;
}

}  // namespace egemm::sass::analysis
