#pragma once
// Shared plumbing for the benchmark harness: every binary regenerates one
// paper table/figure (DESIGN.md §4), prints it as an ASCII table, and
// accepts a common set of flags:
//   --gpu=t4|rtx6000   target resource model (default t4)
//   --sizes=a,b,c      override the size sweep
//   --full             run the paper's full size range (functional
//                      precision sweeps default to a laptop-scale subset)
//   --trials=N         trial count for randomized experiments
//   --seed=N           RNG seed

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/scheme.hpp"
#include "gemm/gemm_api.hpp"
#include "obs/callrec.hpp"
#include "obs/export.hpp"
#include "simd/isa.hpp"
#include "tcsim/gpu_spec.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace egemm::bench {

inline tcsim::GpuSpec gpu_from_args(const util::CliArgs& args) {
  return tcsim::spec_by_name(args.value_or("gpu", std::string("t4")));
}

inline std::vector<std::int64_t> sizes_from_args(
    const util::CliArgs& args, std::vector<std::int64_t> quick,
    std::vector<std::int64_t> full) {
  if (args.has_flag("sizes")) return args.int_list_or("sizes", quick);
  return args.has_flag("full") ? full : quick;
}

/// Geometric mean helper for the headline "average speedup" rows. An empty
/// sweep has no geometric mean: returning NaN (rather than a 0.0 that reads
/// as "infinitely slower") makes a silently empty sweep impossible to
/// mistake for a measurement downstream.
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// -- machine-readable results ------------------------------------------------

/// One measured benchmark row for the persistent JSON artifact.
struct BenchRecord {
  std::string name;            ///< benchmark name incl. size, e.g. "X/1024"
  double ns_per_iter = 0.0;    ///< real time per iteration
  double items_per_second = 0.0;  ///< rate counter (FLOP/s for GEMM benches)
};

using obs::append_json_escaped;

/// The harness-side id -> name resolvers for the per-call telemetry JSON
/// (obs/callrec.hpp cannot name gemm/core/simd enums itself -- the obs
/// layer sits below them).
inline obs::CallJsonNames call_json_names() {
  obs::CallJsonNames names;
  names.scheme = [](std::int8_t s) -> const char* {
    if (s < 0 || static_cast<std::size_t>(s) >= core::kSchemeCount) {
      return "custom";
    }
    return core::scheme_name(static_cast<core::SchemeId>(s));
  };
  names.backend = [](std::uint8_t b) -> const char* {
    return b <= static_cast<std::uint8_t>(gemm::Backend::kDekker)
               ? gemm::backend_name(static_cast<gemm::Backend>(b))
               : "?";
  };
  names.isa = [](std::uint8_t i) -> const char* {
    return i < static_cast<std::uint8_t>(simd::kIsaLevelCount)
               ? simd::isa_name(static_cast<simd::IsaLevel>(i))
               : "?";
  };
  return names;
}

/// Writes the benchmark records as a small self-describing JSON document
/// (consumed by CI as an artifact; "gflops" is items_per_second / 1e9 and is
/// GFLOP/s for the GEMM benches, whose item count is the FLOP count). The
/// observability registry rides along as a "metrics" object so every
/// BENCH_*.json carries the pipeline counters of the run that produced it,
/// and the drained per-call records as a "calls" object with per-shape
/// stage attribution and latency quantiles (DESIGN.md §17).
inline bool write_bench_json(const std::string& path,
                             const std::string& git_sha,
                             const std::vector<BenchRecord>& records) {
  std::string out = "{\n  \"git_sha\": \"";
  append_json_escaped(out, git_sha);
  out += "\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    char buf[160];
    out += "    {\"name\": \"";
    append_json_escaped(out, r.name);
    std::snprintf(buf, sizeof(buf),
                  "\", \"ns_per_iter\": %.6g, \"items_per_second\": %.6g, "
                  "\"gflops\": %.6g}%s\n",
                  r.ns_per_iter, r.items_per_second, r.items_per_second / 1e9,
                  i + 1 < records.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n  \"calls\": ";
  {
    const std::vector<obs::CallRecord> calls = obs::drain_call_records();
    out += obs::call_summary_json_block(
        obs::summarize_calls({calls.data(), calls.size()}), "  ",
        call_json_names());
  }
  out += ",\n  \"metrics\": ";
  out += obs::metrics_json_block("  ");
  out += "\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

// -- benchmark comparison ----------------------------------------------------
// `--compare=OLD.json` support: diff a fresh run against a committed
// BENCH_*.json and fail (exit nonzero) when any shared row slows down past
// a configurable threshold. CI runs this warn-only on the release bench so
// a noisy runner cannot block a merge, but the regression is visible in
// the log; locally it is the regenerate-BENCH_micro.json gate.

/// Parses the benchmark rows out of a BENCH_*.json document previously
/// written by write_bench_json. A minimal scanner, not a JSON parser: rows
/// are the only objects with a "name" field (the metrics block keys
/// metrics BY name), and write_bench_json emits one row per line.
inline std::vector<BenchRecord> parse_bench_json_records(
    const std::string& text) {
  std::vector<BenchRecord> records;
  std::size_t pos = 0;
  while ((pos = text.find("\"name\":", pos)) != std::string::npos) {
    pos = text.find('"', pos + 7);
    if (pos == std::string::npos) break;
    std::string name;
    std::size_t end = pos + 1;
    while (end < text.size() && text[end] != '"') {
      if (text[end] == '\\' && end + 1 < text.size()) {
        name += text[end + 1];
        end += 2;
      } else {
        name += text[end++];
      }
    }
    const std::size_t obj_end = text.find('}', end);
    const auto field = [&](const char* key) {
      const std::size_t key_pos = text.find(key, end);
      if (key_pos == std::string::npos ||
          (obj_end != std::string::npos && key_pos > obj_end)) {
        return 0.0;
      }
      const std::size_t colon = text.find(':', key_pos);
      if (colon == std::string::npos) return 0.0;
      return std::strtod(text.c_str() + colon + 1, nullptr);
    };
    BenchRecord rec;
    rec.name = std::move(name);
    rec.ns_per_iter = field("\"ns_per_iter\"");
    rec.items_per_second = field("\"items_per_second\"");
    records.push_back(std::move(rec));
    pos = obj_end == std::string::npos ? end : obj_end;
  }
  return records;
}

struct BenchCompareRow {
  std::string name;
  double old_ns = 0.0;
  double new_ns = 0.0;
  double ratio = 0.0;  ///< new_ns / old_ns; > 1 is a slowdown
  bool regressed = false;
};

struct BenchCompareReport {
  std::vector<BenchCompareRow> rows;        ///< rows present in both runs
  std::vector<std::string> only_in_old;     ///< dropped benchmarks
  std::vector<std::string> only_in_new;     ///< new benchmarks (informational)
  std::size_t regressions = 0;
};

/// Compares by name; a row regresses when new_ns > old_ns * (1 +
/// threshold). Rows without a timing on either side are skipped.
inline BenchCompareReport compare_bench_records(
    const std::vector<BenchRecord>& old_records,
    const std::vector<BenchRecord>& new_records, double threshold) {
  BenchCompareReport report;
  for (const BenchRecord& old_rec : old_records) {
    const BenchRecord* new_rec = nullptr;
    for (const BenchRecord& candidate : new_records) {
      if (candidate.name == old_rec.name) {
        new_rec = &candidate;
        break;
      }
    }
    if (new_rec == nullptr) {
      report.only_in_old.push_back(old_rec.name);
      continue;
    }
    if (old_rec.ns_per_iter <= 0.0 || new_rec->ns_per_iter <= 0.0) continue;
    BenchCompareRow row;
    row.name = old_rec.name;
    row.old_ns = old_rec.ns_per_iter;
    row.new_ns = new_rec->ns_per_iter;
    row.ratio = row.new_ns / row.old_ns;
    row.regressed = row.new_ns > row.old_ns * (1.0 + threshold);
    if (row.regressed) ++report.regressions;
    report.rows.push_back(std::move(row));
  }
  for (const BenchRecord& new_rec : new_records) {
    bool found = false;
    for (const BenchRecord& old_rec : old_records) {
      if (old_rec.name == new_rec.name) {
        found = true;
        break;
      }
    }
    if (!found) report.only_in_new.push_back(new_rec.name);
  }
  return report;
}

inline void print_bench_compare(const BenchCompareReport& report,
                                double threshold, std::ostream& os) {
  char title[96];
  std::snprintf(title, sizeof(title),
                "benchmark comparison (threshold +%.0f%%)", threshold * 100.0);
  util::Table table(title);
  table.set_header(
      {"benchmark", "old ns/iter", "new ns/iter", "ratio", "status"});
  for (const BenchCompareRow& row : report.rows) {
    table.add_row({row.name, util::fmt_sci(row.old_ns, 4),
                   util::fmt_sci(row.new_ns, 4), util::fmt_fixed(row.ratio, 3),
                   row.regressed ? "REGRESSED" : "ok"});
  }
  table.print(os);
  for (const std::string& name : report.only_in_old) {
    os << "  only in old run: " << name << "\n";
  }
  for (const std::string& name : report.only_in_new) {
    os << "  only in new run: " << name << "\n";
  }
  os << (report.regressions == 0 ? "no regressions" :
         std::to_string(report.regressions) + " REGRESSION(S)")
     << " across " << report.rows.size() << " shared benchmarks\n";
}

// -- observability flags -----------------------------------------------------

/// Shared handling for the observability flags every harness binary
/// accepts (DESIGN.md §12, §17):
///   --trace=FILE                  Chrome trace of the run
///   --metrics                     human-readable registry dump
///   --metrics-format=json|openmetrics
///                                 machine-readable registry export
///   --metrics-out=FILE            destination for the export (stdout when
///                                 omitted; Prometheus scrapes this file)
/// Construct after CLI parsing (turns tracing on when --trace was given),
/// call `finish()` once the measured work is done: it writes the Chrome
/// trace, dumps the registry, and emits the structured export.
class ObsSession {
 public:
  explicit ObsSession(const util::CliArgs& args)
      : ObsSession(args.value_or("trace", std::string()),
                   args.has_flag("metrics")) {
    if (args.has_flag("metrics-format")) {
      const std::string text =
          args.value_or("metrics-format", std::string("json"));
      if (!set_metrics_export(text, args.value_or("metrics-out",
                                                  std::string()))) {
        std::cerr << "error: unknown --metrics-format '" << text
                  << "' (expected json or openmetrics)\n";
      }
    }
  }

  ObsSession(std::string trace_path, bool dump_metrics)
      : trace_path_(std::move(trace_path)), dump_metrics_(dump_metrics) {
    obs::set_thread_name("main");
    if (!trace_path_.empty()) obs::set_tracing(true);
  }

  /// Arms the finish()-time structured export. False (and no export armed)
  /// when `format_text` names no known format; the caller decides whether
  /// that is fatal.
  bool set_metrics_export(std::string_view format_text, std::string path) {
    if (!obs::parse_metrics_format(format_text, metrics_format_)) {
      flags_ok_ = false;
      return false;
    }
    export_metrics_ = true;
    metrics_out_ = std::move(path);
    return true;
  }

  /// Whether every recognized flag parsed cleanly (bad --metrics-format
  /// values clear this; the message was already printed).
  bool flags_ok() const noexcept { return flags_ok_; }

  /// Idempotent; returns false when the trace file or metrics export could
  /// not be written (or a flag failed to parse).
  bool finish() {
    if (finished_) return ok_ && flags_ok_;
    finished_ = true;
    if (!trace_path_.empty()) {
      obs::set_tracing(false);
      ok_ = obs::write_chrome_trace(trace_path_);
      if (ok_) {
        std::cout << "wrote Chrome trace to " << trace_path_
                  << " (load in chrome://tracing or ui.perfetto.dev)\n";
      } else {
        std::cerr << "error: failed to write trace to " << trace_path_
                  << "\n";
      }
    }
    if (dump_metrics_) {
      std::cout << "\n-- metrics ------------------------------------------\n";
      obs::dump_metrics(std::cout);
    }
    if (export_metrics_) {
      if (!obs::write_metrics(metrics_out_, metrics_format_)) {
        std::cerr << "error: failed to write metrics export"
                  << (metrics_out_.empty() ? "" : " to " + metrics_out_)
                  << "\n";
        ok_ = false;
      } else if (!metrics_out_.empty()) {
        std::cout << "wrote metrics export to " << metrics_out_ << "\n";
      }
    }
    return ok_ && flags_ok_;
  }

 private:
  std::string trace_path_;
  bool dump_metrics_ = false;
  bool export_metrics_ = false;
  obs::MetricsFormat metrics_format_ = obs::MetricsFormat::kJson;
  std::string metrics_out_;
  bool finished_ = false;
  bool ok_ = true;
  bool flags_ok_ = true;
};

}  // namespace egemm::bench
