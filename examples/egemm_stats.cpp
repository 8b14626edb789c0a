// egemm_stats: per-call telemetry reporter (DESIGN.md §17). Runs a sweep
// of GEMM shapes across emulation-ladder schemes, drains the structured
// call records the execute path deposits, and prints a per-shape x scheme
// table of latency quantiles, stage attribution (split/pack/mma/combine)
// and effective GFLOP/s.
//
//   build/examples/egemm_stats [options]
//
//   --shapes=LIST       comma-separated shapes, each "m:n:k" or a single
//                       "N" meaning N:N:N (default 128,256)
//   --schemes=LIST      comma-separated ladder rungs (core/scheme.hpp
//                       names) or "all" (default all)
//   --reps=N            executes per shape x scheme (default 50)
//   --batch=N           run each rep as ONE grouped execute of N copies
//                       (gemm/plan.hpp execute_grouped) instead of a
//                       single call; the table then attributes latency
//                       per batch class (batch id tagged records) and
//                       shows the covered GEMM count (default 0 = single)
//   --seed=N            input RNG seed (default 1)
//   --json              print the summary as JSON instead of the table
//   --metrics-format=F  also export the metrics registry: json|openmetrics
//   --metrics-out=PATH  destination for --metrics-format (default stdout)
//
// Latency quantiles come from the log-linear accumulator and are within
// obs::kLatencyQuantileRelErr (6.25%) of the exact sorted-sample values.
// Exit status: 0 on success, 2 on usage errors.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/plan.hpp"
#include "obs/callrec.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "simd/isa.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace egemm;

namespace {

struct Shape {
  std::size_t m = 0, n = 0, k = 0;
};

/// "m:n:k" or a bare "N" (cube). nullopt on anything else.
std::optional<Shape> parse_shape(const std::string& token) {
  Shape shape;
  unsigned long long m = 0, n = 0, k = 0;
  char tail = '\0';
  if (std::sscanf(token.c_str(), "%llu:%llu:%llu%c", &m, &n, &k, &tail) == 3) {
    shape.m = m;
    shape.n = n;
    shape.k = k;
  } else if (std::sscanf(token.c_str(), "%llu%c", &m, &tail) == 1) {
    shape.m = shape.n = shape.k = m;
  } else {
    return std::nullopt;
  }
  if (shape.m == 0 || shape.n == 0 || shape.k == 0) return std::nullopt;
  return shape;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::string pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? "-"
                    : util::fmt_fixed(100.0 * static_cast<double>(part) /
                                          static_cast<double>(whole),
                                      1);
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);

  const std::int64_t reps = args.value_or("reps", std::int64_t{50});
  if (reps < 1) {
    std::fprintf(stderr, "egemm_stats: --reps must be >= 1\n");
    return 2;
  }
  const std::int64_t batch = args.value_or("batch", std::int64_t{0});
  if (batch < 0) {
    std::fprintf(stderr, "egemm_stats: --batch must be >= 0\n");
    return 2;
  }
  const auto seed =
      static_cast<std::uint64_t>(args.value_or("seed", std::int64_t{1}));

  std::vector<Shape> shapes;
  for (const std::string& token :
       split_list(args.value_or("shapes", std::string("128,256")))) {
    const std::optional<Shape> shape = parse_shape(token);
    if (!shape) {
      std::fprintf(stderr,
                   "egemm_stats: cannot parse shape \"%s\" "
                   "(expected m:n:k or N)\n",
                   token.c_str());
      return 2;
    }
    shapes.push_back(*shape);
  }

  std::vector<core::SchemeId> schemes;
  const std::string schemes_text =
      args.value_or("schemes", std::string("all"));
  if (schemes_text == "all") {
    for (const core::SchemeId rung : core::scheme_ladder()) {
      schemes.push_back(rung);
    }
  } else {
    for (const std::string& token : split_list(schemes_text)) {
      const std::optional<core::SchemeId> rung =
          core::parse_scheme_name(token);
      if (!rung) {
        std::fprintf(stderr, "egemm_stats: unknown scheme \"%s\"; one of:",
                     token.c_str());
        for (const core::SchemeId known : core::scheme_ladder()) {
          std::fprintf(stderr, " %s", core::scheme_name(known));
        }
        std::fprintf(stderr, " all\n");
        return 2;
      }
      schemes.push_back(*rung);
    }
  }

  obs::MetricsFormat metrics_format = obs::MetricsFormat::kJson;
  bool export_metrics = false;
  if (args.has_flag("metrics-format")) {
    const std::string format_text =
        args.value_or("metrics-format", std::string("json"));
    if (!obs::parse_metrics_format(format_text, metrics_format)) {
      std::fprintf(stderr,
                   "egemm_stats: unknown --metrics-format \"%s\" "
                   "(expected json or openmetrics)\n",
                   format_text.c_str());
      return 2;
    }
    export_metrics = true;
  }

  if constexpr (!obs::kEnabled) {
    std::fprintf(stderr,
                 "egemm_stats: this binary was built with "
                 "EGEMM_OBSERVABILITY=OFF; no call records are collected\n");
  }

  // Fresh record window: the sweep below is the only thing summarized.
  obs::clear_call_records();

  gemm::GemmContext ctx;
  for (const Shape& shape : shapes) {
    const gemm::Matrix a =
        gemm::random_matrix(shape.m, shape.k, -1.0f, 1.0f,
                            /*seed=*/seed);
    const gemm::Matrix b =
        gemm::random_matrix(shape.k, shape.n, -1.0f, 1.0f,
                            /*seed=*/seed + 1);
    for (const core::SchemeId scheme : schemes) {
      if (batch > 0) {
        // One grouped execute of `batch` copies per rep: the records it
        // deposits carry a batch id and the per-class item count, which is
        // what the batch/gemms columns below attribute.
        const std::shared_ptr<const gemm::GemmPlan> plan =
            ctx.plan_scheme(scheme, shape.m, shape.n, shape.k);
        std::vector<gemm::Matrix> d(static_cast<std::size_t>(batch));
        std::vector<gemm::GroupedGemm> work(d.size());
        for (std::size_t i = 0; i < d.size(); ++i) {
          work[i] = gemm::GroupedGemm{plan, &a, &b, nullptr, &d[i]};
        }
        for (std::int64_t rep = 0; rep < reps; ++rep) {
          ctx.execute_grouped(work);
        }
      } else {
        for (std::int64_t rep = 0; rep < reps; ++rep) {
          gemm::Matrix d;
          ctx.plan_scheme(scheme, shape.m, shape.n, shape.k)
              ->execute(ctx, a, b, nullptr, d);
        }
      }
    }
  }

  const std::vector<obs::CallRecord> records = obs::drain_call_records();
  const obs::CallSummary summary =
      obs::summarize_calls({records.data(), records.size()});

  if (args.has_flag("json")) {
    std::string out =
        obs::call_summary_json_block(summary, "", gemm::call_json_names());
    out += "\n";
    std::fwrite(out.data(), 1, out.size(), stdout);
  } else {
    util::Table table("per-call telemetry (" + std::to_string(reps) +
                      " reps per shape x scheme)");
    table.set_header({"shape", "scheme", "batch", "calls", "gemms", "hit%",
                      "p50 us", "p90 us", "p99 us", "GFLOP/s", "split%",
                      "pack%", "mma%", "comb%", "cov%"});
    const obs::CallJsonNames names = gemm::call_json_names();
    for (const obs::CallClassSummary& cls : summary.classes) {
      const std::string shape = std::to_string(cls.m) + "x" +
                                std::to_string(cls.n) + "x" +
                                std::to_string(cls.k);
      table.add_row(
          {shape, names.scheme(cls.scheme), std::to_string(cls.batch),
           std::to_string(cls.calls), std::to_string(cls.gemms),
           pct(cls.plan_hits, cls.calls),
           util::fmt_fixed(
               static_cast<double>(cls.latency.quantile(0.50)) / 1e3, 1),
           util::fmt_fixed(
               static_cast<double>(cls.latency.quantile(0.90)) / 1e3, 1),
           util::fmt_fixed(
               static_cast<double>(cls.latency.quantile(0.99)) / 1e3, 1),
           util::fmt_fixed(cls.gflops(), 2), pct(cls.split_ns, cls.total_ns),
           pct(cls.pack_ns, cls.total_ns), pct(cls.mma_ns, cls.total_ns),
           pct(cls.combine_ns, cls.total_ns),
           pct(cls.split_ns + cls.pack_ns + cls.mma_ns + cls.combine_ns,
               cls.total_ns)});
    }
    std::uint64_t batched_records = 0;
    for (const obs::CallClassSummary& cls : summary.classes) {
      batched_records += cls.batched_records;
    }
    table.add_footnote("records aggregated: " +
                       std::to_string(summary.records) + " (" +
                       std::to_string(batched_records) +
                       " batch-tagged), dropped at full rings: " +
                       std::to_string(summary.dropped));
    // Plan-cache health for the sweep's context: the per-class hit% column
    // above covers record-level lookups; this is the cache itself.
    {
      const std::uint64_t hits = ctx.plan_hits();
      const std::uint64_t misses = ctx.plan_misses();
      table.add_footnote(
          "plan cache: " + std::to_string(ctx.cached_plans()) + "/" +
          std::to_string(ctx.plan_capacity()) + " occupied, " +
          std::to_string(hits) + " hits / " + std::to_string(misses) +
          " misses (" + pct(hits, hits + misses) + "% hit rate), " +
          std::to_string(ctx.plan_evictions()) + " evictions");
    }
    table.add_footnote(std::string("active ISA tier: ") +
                       simd::active_isa_name());
    table.add_footnote(
        "quantile relative error bound: " +
        util::fmt_fixed(100.0 * obs::kLatencyQuantileRelErr, 2) +
        "% (log-linear histogram, 16 sub-buckets per octave)");
    table.print(std::cout);
  }

  if (export_metrics) {
    const std::string metrics_out =
        args.value_or("metrics-out", std::string());
    if (!obs::write_metrics(metrics_out, metrics_format)) {
      std::fprintf(stderr, "egemm_stats: cannot write metrics export%s%s\n",
                   metrics_out.empty() ? "" : " to ", metrics_out.c_str());
      return 2;
    }
    if (!metrics_out.empty()) {
      std::printf("wrote metrics export to %s\n", metrics_out.c_str());
    }
  }
  return 0;
}
