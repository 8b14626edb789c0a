#include "verify/differential.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "gemm/plan.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "verify/oracle.hpp"
#include "verify/reference_execute.hpp"

namespace egemm::verify {

namespace {

/// Inputs at or beyond this magnitude risk an infinite hi plane (the
/// binary16 overflow threshold is 65520); together with non-finite values
/// they classify a case as special.
constexpr float kSplitOverflowEdge = 32768.0f;

bool span_special(std::span<const float> values, bool magnitude_check) {
  for (const float v : values) {
    if (!std::isfinite(v)) return true;
    if (magnitude_check && std::fabs(v) >= kSplitOverflowEdge) return true;
  }
  return false;
}

bool bitwise_equal(const gemm::Matrix& x, const gemm::Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data().data(), y.data().data(),
                      x.size() * sizeof(float)) == 0);
}

using obs::append_json_escaped;

double now_seconds() noexcept {
  return static_cast<double>(obs::monotonic_ns()) * 1e-9;
}

/// The ladder rung a path runs: its own index, or round-2term for the
/// separate-pass path.
core::SchemeId path_rung(std::size_t path) noexcept {
  EGEMM_EXPECTS(path < kPathCount);
  return path == kSeparatePasses ? core::SchemeId::kRound2
                                 : static_cast<core::SchemeId>(path);
}

/// Bumps the per-path case counter ("verify.cases.<path>"). Handles are
/// resolved once for all paths; path_label returns static literals, so the
/// registry never stores dangling views.
void count_path_case(std::size_t path) {
  if constexpr (obs::kEnabled) {
    static const std::array<obs::Counter*, kPathCount> counters = [] {
      std::array<obs::Counter*, kPathCount> handles{};
      for (std::size_t p = 0; p < kPathCount; ++p) {
        handles[p] = &obs::registry().counter(std::string("verify.cases.") +
                                              path_label(p));
      }
      return handles;
    }();
    counters[path]->add(1);
  }
}

}  // namespace

bool inputs_special(const FuzzInputs& inputs) {
  // C feeds the accumulator directly (no split), so only non-finite C is
  // special; A and B also trip on split overflow.
  return span_special(inputs.a.data(), true) ||
         span_special(inputs.b.data(), true) ||
         (inputs.use_c && span_special(inputs.c.data(), false));
}

const char* path_label(std::size_t path) noexcept {
  return path == kSeparatePasses ? "separate-passes"
                                 : core::scheme_name(path_rung(path));
}

gemm::Matrix run_path(std::size_t path, gemm::GemmContext& ctx,
                      const gemm::Matrix& a, const gemm::Matrix& b,
                      const gemm::Matrix* c) {
  // path_label returns string literals, so the span name outlives the trace.
  const obs::ScopedSpan span(path_label(path));
  EGEMM_EXPECTS(a.cols() == b.rows());
  const std::size_t m = a.rows(), n = b.cols(), k = a.cols();
  const std::shared_ptr<const gemm::GemmPlan> plan =
      path == kSeparatePasses
          ? ctx.plan(gemm::Backend::kCublasTcEmulation, m, n, k)
          : ctx.plan_scheme(path_rung(path), m, n, k);
  gemm::Matrix d;
  plan->execute(ctx, a, b, c, d);
  return d;
}

void PathObservation::merge(const PathObservation& other) {
  stats.merge(other.stats);
  violations += other.violations;
  if (other.worst_ratio > worst_ratio) {
    worst_ratio = other.worst_ratio;
    worst_measured = other.worst_measured;
    worst_bound = other.worst_bound;
  }
}

CaseResult run_case(const FuzzCase& fuzz) {
  return run_case(fuzz, gemm::default_context());
}

CaseResult run_case(const FuzzCase& fuzz, gemm::GemmContext& ctx) {
  CaseResult result;
  result.fuzz = fuzz;
  const FuzzInputs inputs = generate_inputs(fuzz);
  result.special = inputs_special(inputs);

  // Engine differential: the packed engine's contract is bitwise equality
  // with the scalar oracle (reference_execute) for EVERY input class,
  // specials included -- run under the case's ladder rung so every
  // scheme's packed path gets soaked, not just the round-2term default.
  const auto engine_path = static_cast<std::size_t>(fuzz.scheme);
  count_path_case(engine_path);
  const double packed_start = now_seconds();
  const std::shared_ptr<const gemm::GemmPlan> plan = ctx.plan_scheme(
      fuzz.scheme, inputs.a.rows(), inputs.b.cols(), inputs.a.cols());
  gemm::Matrix packed;
  plan->execute(ctx, inputs.a, inputs.b, inputs.c_ptr(), packed);
  result.path_seconds[engine_path] = now_seconds() - packed_start;
  result.engine_match = bitwise_equal(
      packed, reference_execute(*plan, inputs.a, inputs.b, inputs.c_ptr()));

  if (result.special) {
    EGEMM_COUNTER_ADD("verify.special_cases", 1);
    // No numeric bounds for IEEE-propagation cases, but every path must
    // still execute without tripping a contract or crashing.
    for (std::size_t p = 0; p < kPathCount; ++p) {
      if (p == engine_path) continue;
      count_path_case(p);
      const double path_start = now_seconds();
      (void)run_path(p, ctx, inputs.a, inputs.b, inputs.c_ptr());
      result.path_seconds[p] = now_seconds() - path_start;
    }
    return result;
  }

  const double oracle_start = now_seconds();
  const OracleMatrix oracle = [&] {
    EGEMM_TRACE_SCOPE("oracle");
    return oracle_gemm(inputs.a, inputs.b, inputs.c_ptr());
  }();
  result.oracle_seconds = now_seconds() - oracle_start;
  EGEMM_COUNTER_ADD("verify.oracle_calls", 1);

  // Per-row / per-column scale context for the element bounds.
  std::vector<double> row_amax(fuzz.m, 0.0);
  for (std::size_t i = 0; i < fuzz.m; ++i) {
    for (std::size_t t = 0; t < fuzz.k; ++t) {
      row_amax[i] = std::max(
          row_amax[i], std::fabs(static_cast<double>(inputs.a.at(i, t))));
    }
  }
  std::vector<double> col_bmax(fuzz.n, 0.0);
  for (std::size_t t = 0; t < fuzz.k; ++t) {
    for (std::size_t j = 0; j < fuzz.n; ++j) {
      col_bmax[j] = std::max(
          col_bmax[j], std::fabs(static_cast<double>(inputs.b.at(t, j))));
    }
  }

  for (std::size_t p = 0; p < kPathCount; ++p) {
    if (p != engine_path) count_path_case(p);
    const double path_start = now_seconds();
    const gemm::Matrix candidate =
        p == engine_path ? packed
                         : run_path(p, ctx, inputs.a, inputs.b, inputs.c_ptr());
    if (p != engine_path) {
      result.path_seconds[p] = now_seconds() - path_start;
    }
    const core::SchemeProfile profile = core::scheme_profile(path_rung(p));
    PathObservation& observed = result.paths[p];
    for (std::size_t i = 0; i < fuzz.m; ++i) {
      for (std::size_t j = 0; j < fuzz.n; ++j) {
        const double ref = oracle.value(i, j);
        const double cand = static_cast<double>(candidate.at(i, j));
        observed.stats.accumulate(ref, cand);
        core::BoundInputs context;
        context.k = fuzz.k;
        context.a_scale = row_amax[i];
        context.b_scale = col_bmax[j];
        context.c_abs =
            inputs.use_c
                ? std::fabs(static_cast<double>(inputs.c.at(i, j)))
                : 0.0;
        const core::ErrorBound bound =
            core::scheme_element_bound(profile, context);
        const double err = std::fabs(cand - ref);
        const double ratio =
            bound.worst_abs > 0.0
                ? err / bound.worst_abs
                : (err > 0.0 ? std::numeric_limits<double>::infinity() : 0.0);
        if (err > bound.worst_abs) ++observed.violations;
        if (ratio > observed.worst_ratio) {
          observed.worst_ratio = ratio;
          observed.worst_measured = err;
          observed.worst_bound = bound.worst_abs;
        }
      }
    }
  }
  return result;
}

std::size_t AuditReport::total_violations() const noexcept {
  std::size_t total = 0;
  for (const PathSummary& path : paths) total += path.observed.violations;
  return total;
}

bool AuditReport::round_below_markidis() const noexcept {
  const fp::ErrorStats& round =
      uniform_stats[static_cast<std::size_t>(core::SchemeId::kRound2)];
  const fp::ErrorStats& markidis =
      uniform_stats[static_cast<std::size_t>(core::SchemeId::kMarkidis)];
  return round.count > 0 && round.max_ulp < markidis.max_ulp;
}

AuditReport run_audit(const AuditOptions& options) {
  AuditReport report;
  report.seed = options.seed;
  std::vector<FuzzCase> plan = fuzz_plan(options.seed, options.cases);
  if (options.scheme) {
    // CI scheme-matrix lane: every case's engine differential on one rung.
    for (FuzzCase& fuzz : plan) fuzz.scheme = *options.scheme;
    report.engine_scheme = core::scheme_name(*options.scheme);
  }
  report.cases_planned = plan.size();
  const auto start = std::chrono::steady_clock::now();
  constexpr std::size_t kMaxFailingCases = 64;

  // One context for the whole audit: plans for recurring fuzz shapes are
  // resolved once and the split/pack workspaces recycle across cases.
  gemm::GemmContext ctx;

  for (const FuzzCase& fuzz : plan) {
    if (options.time_budget_seconds > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() >= options.time_budget_seconds) break;
    }
    const CaseResult result = run_case(fuzz, ctx);
    EGEMM_COUNTER_ADD("verify.cases", 1);
    ++report.cases_run;
    report.oracle_seconds += result.oracle_seconds;
    for (std::size_t p = 0; p < kPathCount; ++p) {
      report.path_seconds[p] += result.path_seconds[p];
    }
    if (result.special) ++report.special_cases;
    bool failing = !result.engine_match;
    if (!result.engine_match) ++report.engine_mismatches;
    for (std::size_t p = 0; p < kPathCount; ++p) {
      const PathObservation& observed = result.paths[p];
      if (observed.violations > 0) failing = true;
      PathSummary& summary = report.paths[p];
      if (observed.worst_ratio > summary.observed.worst_ratio) {
        summary.worst_case = format_case(fuzz);
      }
      summary.observed.merge(observed);
      if (fuzz.kind == InputKind::kUniform) {
        report.uniform_stats[p].merge(observed.stats);
      }
    }
    if (failing && report.failing_cases.size() < kMaxFailingCases) {
      report.failing_cases.push_back(format_case(fuzz));
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  report.wall_seconds = elapsed.count();
  return report;
}

bool write_audit_json(const std::string& path, const AuditReport& report,
                      const std::string& git_sha) {
  std::string out = "{\n  \"git_sha\": \"";
  append_json_escaped(out, git_sha);
  out += "\",\n  \"engine_scheme\": \"";
  append_json_escaped(out, report.engine_scheme);
  out += "\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"seed\": %llu,\n  \"cases_planned\": %zu,\n"
                "  \"cases_run\": %zu,\n  \"special_cases\": %zu,\n"
                "  \"engine_mismatches\": %zu,\n"
                "  \"total_violations\": %zu,\n"
                "  \"round_below_markidis\": %s,\n  \"paths\": [\n",
                static_cast<unsigned long long>(report.seed),
                report.cases_planned, report.cases_run, report.special_cases,
                report.engine_mismatches, report.total_violations(),
                report.round_below_markidis() ? "true" : "false");
  out += buf;
  for (std::size_t p = 0; p < kPathCount; ++p) {
    const PathSummary& summary = report.paths[p];
    out += "    {\"name\": \"";
    append_json_escaped(out, path_label(p));
    out += "\", \"scheme\": \"";
    append_json_escaped(out, core::scheme_name(path_rung(p)));
    std::snprintf(buf, sizeof(buf),
                  "\", \"max_abs\": %.9g, \"mean_abs\": %.9g, "
                  "\"max_rel\": %.9g, \"max_ulp\": %.9g, "
                  "\"uniform_max_ulp\": %.9g, \"elements\": %zu, "
                  "\"violations\": %zu, \"worst_bound_ratio\": %.9g, "
                  "\"worst_case\": \"",
                  summary.observed.stats.max_abs,
                  summary.observed.stats.mean_abs(),
                  summary.observed.stats.max_rel,
                  summary.observed.stats.max_ulp,
                  report.uniform_stats[p].max_ulp,
                  summary.observed.stats.count, summary.observed.violations,
                  summary.observed.worst_ratio);
    out += buf;
    append_json_escaped(out, summary.worst_case);
    out += "\"}";
    out += p + 1 < kPathCount ? ",\n" : "\n";
  }
  // Observability block (DESIGN.md §12): wall-time split between the
  // oracle and each path, plus the process-wide metrics registry.
  std::snprintf(buf, sizeof(buf),
                "  ],\n  \"metrics\": {\n"
                "    \"wall_seconds\": %.9g,\n"
                "    \"oracle_seconds\": %.9g,\n"
                "    \"oracle_time_share\": %.9g,\n"
                "    \"paths\": [\n",
                report.wall_seconds, report.oracle_seconds,
                report.wall_seconds > 0.0
                    ? report.oracle_seconds / report.wall_seconds
                    : 0.0);
  out += buf;
  for (std::size_t p = 0; p < kPathCount; ++p) {
    out += "      {\"name\": \"";
    append_json_escaped(out, path_label(p));
    const double seconds = report.path_seconds[p];
    std::snprintf(buf, sizeof(buf),
                  "\", \"seconds\": %.9g, \"cases_per_second\": %.9g}%s",
                  seconds,
                  seconds > 0.0
                      ? static_cast<double>(report.cases_run) / seconds
                      : 0.0,
                  p + 1 < kPathCount ? ",\n" : "\n");
    out += buf;
  }
  out += "    ],\n    \"registry\": ";
  out += obs::metrics_json_block("    ");
  out += "\n  },\n  \"failing_cases\": [";
  for (std::size_t i = 0; i < report.failing_cases.size(); ++i) {
    out += i == 0 ? "\n    \"" : ",\n    \"";
    append_json_escaped(out, report.failing_cases[i]);
    out += "\"";
  }
  out += report.failing_cases.empty() ? "]\n}\n" : "\n  ]\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace egemm::verify
