// accuracy_audit: the differential accuracy-verification harness as a CLI
// (DESIGN.md §11). Fuzzes seed-reproducible adversarial GEMM cases, runs
// every functional path against the double-double oracle, and asserts each
// element lands inside its a-priori error-model bound.
//
//   build/examples/accuracy_audit [options]
//
//   --seed=N            master fuzz seed (default 1)
//   --cases=N           number of fuzz cases to plan (default 500)
//   --scheme=NAME       pin every case's engine differential to one ladder
//                       rung (e.g. recovery-3term); default round-robins
//                       the whole ladder
//   --time-budget-s=S   stop planning new cases after S seconds (default off)
//   --json[=PATH]       also write a JSON report (default AUDIT_accuracy.json)
//   --replay="DESC"     run one case from its replay descriptor and exit
//                       (e.g. --replay="seed=7 m=3 n=5 k=17 kind=uniform c=1")
//   --trace=PATH        record spans (oracle + per-path) to a Chrome
//                       trace_event JSON
//   --metrics           dump the observability registry to stdout at exit
//   --metrics-format=F  export the registry machine-readably at exit:
//                       json or openmetrics (Prometheus scrape format)
//   --metrics-out=PATH  destination for --metrics-format (default stdout)
//
// Exit status: 0 when every path satisfied its bound and the packed engine
// matches the scalar oracle (verify::reference_execute) bitwise, 1 on any
// violation or engine mismatch, 2 on usage errors.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "core/scheme.hpp"
#include "gemm/egemm.hpp"
#include "gemm/plan.hpp"
#include "obs/export.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "verify/differential.hpp"
#include "verify/reference_execute.hpp"

#ifndef EGEMM_GIT_SHA
#define EGEMM_GIT_SHA "unknown"
#endif

using namespace egemm;
using namespace egemm::verify;

namespace {

int replay_one(const std::string& descriptor) {
  const std::optional<FuzzCase> fuzz = parse_case(descriptor);
  if (!fuzz) {
    std::fprintf(stderr, "accuracy_audit: cannot parse --replay case \"%s\"\n",
                 descriptor.c_str());
    return 2;
  }
  const CaseResult result = run_case(*fuzz);
  std::printf("case    : %s\n", format_case(*fuzz).c_str());
  std::printf("scheme  : %s\n", core::scheme_name(fuzz->scheme));
  std::printf("special : %s\n", result.special ? "yes (bounds skipped)" : "no");
  std::printf("engines : %s\n",
              result.engine_match ? "bitwise match" : "MISMATCH");
  bool ok = result.engine_match;
  if (!result.engine_match) {
    // Dump the first few differing elements with their bit patterns so a
    // packed-vs-oracle divergence can be localized without a debugger.
    // Re-run under the case's own scheme, matching what the harness
    // compared.
    const FuzzInputs inputs = generate_inputs(*fuzz);
    gemm::GemmContext& ctx = gemm::default_context();
    const std::shared_ptr<const gemm::GemmPlan> plan = ctx.plan_scheme(
        fuzz->scheme, inputs.a.rows(), inputs.b.cols(), inputs.a.cols());
    gemm::Matrix packed;
    plan->execute(ctx, inputs.a, inputs.b, inputs.c_ptr(), packed);
    const gemm::Matrix reference =
        reference_execute(*plan, inputs.a, inputs.b, inputs.c_ptr());
    int shown = 0;
    for (std::size_t i = 0; i < packed.rows() && shown < 8; ++i) {
      for (std::size_t j = 0; j < packed.cols() && shown < 8; ++j) {
        std::uint32_t pb, rb;
        std::memcpy(&pb, &packed.at(i, j), sizeof(pb));
        std::memcpy(&rb, &reference.at(i, j), sizeof(rb));
        if (pb != rb) {
          std::printf("  (%zu,%zu) packed=%g[%08x] reference=%g[%08x]\n", i,
                      j, static_cast<double>(packed.at(i, j)), pb,
                      static_cast<double>(reference.at(i, j)), rb);
          ++shown;
        }
      }
    }
  }
  if (!result.special) {
    for (std::size_t p = 0; p < kPathCount; ++p) {
      const PathObservation& obs = result.paths[p];
      std::printf(
          "%-15s max_ulp=%-10.3g violations=%zu worst_ratio=%.3g "
          "(measured=%.3g bound=%.3g)\n",
          path_name(static_cast<Path>(p)), obs.stats.max_ulp, obs.violations,
          obs.worst_ratio, obs.worst_measured, obs.worst_bound);
      if (obs.violations > 0) ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);

  if (const auto replay = args.value("replay")) return replay_one(*replay);

  const std::string trace_path = args.value_or("trace", std::string());
  obs::MetricsFormat metrics_format = obs::MetricsFormat::kJson;
  bool export_metrics = false;
  if (args.has_flag("metrics-format")) {
    const std::string format_text =
        args.value_or("metrics-format", std::string("json"));
    if (!obs::parse_metrics_format(format_text, metrics_format)) {
      std::fprintf(stderr,
                   "accuracy_audit: unknown --metrics-format \"%s\" "
                   "(expected json or openmetrics)\n",
                   format_text.c_str());
      return 2;
    }
    export_metrics = true;
  }
  obs::set_thread_name("main");
  if (!trace_path.empty()) obs::set_tracing(true);

  AuditOptions options;
  options.seed =
      static_cast<std::uint64_t>(args.value_or("seed", std::int64_t{1}));
  const std::int64_t cases = args.value_or("cases", std::int64_t{500});
  if (cases < 1) {
    std::fprintf(stderr, "accuracy_audit: --cases must be >= 1\n");
    return 2;
  }
  options.cases = static_cast<std::size_t>(cases);
  options.time_budget_seconds = args.value_or("time-budget-s", 0.0);
  if (const auto scheme_arg = args.value("scheme")) {
    const std::optional<core::SchemeId> scheme =
        core::parse_scheme_name(*scheme_arg);
    if (!scheme) {
      std::fprintf(stderr, "accuracy_audit: unknown --scheme \"%s\"; one of:",
                   scheme_arg->c_str());
      for (const core::SchemeId rung : core::scheme_ladder()) {
        std::fprintf(stderr, " %s", core::scheme_name(rung));
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    options.scheme = *scheme;
  }

  const AuditReport report = run_audit(options);

  if (!trace_path.empty()) {
    obs::set_tracing(false);
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "accuracy_audit: cannot write %s\n",
                   trace_path.c_str());
      return 2;
    }
    std::printf("wrote Chrome trace to %s (load in chrome://tracing)\n",
                trace_path.c_str());
  }

  util::Table table("Differential accuracy audit (seed " +
                    std::to_string(report.seed) + ", " +
                    std::to_string(report.cases_run) + "/" +
                    std::to_string(report.cases_planned) + " cases)");
  table.set_header({"path", "elements", "max ulp", "max rel", "violations",
                    "worst err/bound", "worst case"});
  for (std::size_t p = 0; p < kPathCount; ++p) {
    const PathSummary& summary = report.paths[p];
    table.add_row({path_name(static_cast<Path>(p)),
                   std::to_string(summary.observed.stats.count),
                   util::fmt_sci(summary.observed.stats.max_ulp, 3),
                   util::fmt_sci(summary.observed.stats.max_rel, 3),
                   std::to_string(summary.observed.violations),
                   util::fmt_sci(summary.observed.worst_ratio, 3),
                   summary.worst_case});
  }
  table.add_footnote("special cases (bounds skipped, IEEE propagation): " +
                     std::to_string(report.special_cases));
  table.add_footnote(std::string("engine packed==oracle bitwise: ") +
                     (report.engine_mismatches == 0 ? "yes"
                                                    : "MISMATCHES SEEN") +
                     " (scheme: " + report.engine_scheme + ")");
  table.add_footnote(std::string("round-split max ulp < Markidis (paper "
                                 "Fig. 4 ordering): ") +
                     (report.round_below_markidis() ? "yes" : "NO"));
  table.print(std::cout);

  for (const std::string& failing : report.failing_cases) {
    std::printf("FAILING: %s\n", failing.c_str());
  }

  if (args.has_flag("json")) {
    const std::string path =
        args.value_or("json", std::string("AUDIT_accuracy.json"));
    if (!write_audit_json(path, report, EGEMM_GIT_SHA)) {
      std::fprintf(stderr, "accuracy_audit: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", path.c_str());
  }

  if (args.has_flag("metrics")) {
    std::printf("oracle time share: %.1f%% (%.3fs of %.3fs)\n",
                report.wall_seconds > 0.0
                    ? 100.0 * report.oracle_seconds / report.wall_seconds
                    : 0.0,
                report.oracle_seconds, report.wall_seconds);
    obs::dump_metrics(std::cout);
  }

  if (export_metrics) {
    const std::string metrics_out =
        args.value_or("metrics-out", std::string());
    if (!obs::write_metrics(metrics_out, metrics_format)) {
      std::fprintf(stderr, "accuracy_audit: cannot write metrics export%s%s\n",
                   metrics_out.empty() ? "" : " to ", metrics_out.c_str());
      return 2;
    }
    if (!metrics_out.empty()) {
      std::printf("wrote metrics export to %s\n", metrics_out.c_str());
    }
  }

  return report.ok() ? 0 : 1;
}
