// egemm_e2e: the repository's end-to-end benchmark (README.md in this
// directory). One process runs one workload: three cold set-up passes, a
// warm-up, a timed closed loop from the calling thread against the
// library's own thread pool, then the correctness gate.
//
//   egemm_e2e --workload=NAME [--seed=N] [--duration-s=S] [--smoke]
//             [--traced [--trace=FILE]] [--json=FILE]
//
// --traced adds the per-layer probes and splits the window: an untraced
// reference part, then min(5 s, half the window) with span tracing on and
// the call records drained after every op. Exit codes: 0 pass, 1 a
// correctness check or an op failed, 2 usage error or a refused build.

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "e2e.hpp"
#include "obs/export.hpp"
#include "simd/isa.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace egemm::e2e {
namespace {

/// Spans kept for the Chrome trace file: the first ops of the traced
/// window, enough to inspect in Perfetto without a huge file.
constexpr std::size_t kTraceFileEvents = 50000;
constexpr int kColdPasses = 9;

struct Window {
  std::vector<double> op_ms;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double flops = 0.0;
  double wall_s = 0.0;
  double op_s = 0.0;  ///< sum of per-op wall times

  /// Useful FLOPs per second of op time, in GFLOP/s.
  double op_rate() const { return op_s > 0.0 ? flops / op_s / 1e9 : 0.0; }
};

/// The closed loop: op after op from this thread, no think time, until
/// `seconds` elapse (or `fixed_ops` ops when nonzero).
Window run_window(Workload& w, std::uint64_t& next_op, double seconds,
                  std::uint64_t fixed_ops, TraceCollector* trace) {
  Window win;
  // Touched up front, so peak RSS does not grow with the op count.
  win.op_ms.assign(std::size_t{1} << 20, 0.0);
  const std::uint64_t start = now_ns();
  const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  for (;;) {
    const std::uint64_t i = next_op++;
    std::uint64_t flops = 0;
    const std::uint64_t t0 = now_ns();
    try {
      EGEMM_TRACE_SCOPE("bench.op");
      flops = w.op(i);
    } catch (const std::exception& e) {
      ++win.failed;
      std::fprintf(stderr, "op %llu failed: %s\n",
                   static_cast<unsigned long long>(i), e.what());
    }
    const std::uint64_t op_ns = now_ns() - t0;
    win.flops += static_cast<double>(flops);
    const double op_ms = static_cast<double>(op_ns) / 1e6;
    if (win.ops < win.op_ms.size()) {
      win.op_ms[win.ops] = op_ms;
    } else {
      win.op_ms.push_back(op_ms);
    }
    win.op_s += static_cast<double>(op_ns) / 1e9;
    ++win.ops;
    if (trace != nullptr) trace->after_op(op_ns);
    if (fixed_ops > 0 ? win.ops >= fixed_ops : now_ns() >= deadline) break;
  }
  win.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  win.op_ms.resize(win.ops);
  return win;
}

#ifndef EGEMM_E2E_GIT_SHA
#define EGEMM_E2E_GIT_SHA "unknown"
#endif
#ifndef EGEMM_E2E_BUILD_TYPE
#define EGEMM_E2E_BUILD_TYPE ""
#endif
#ifndef EGEMM_E2E_SANITIZE
#define EGEMM_E2E_SANITIZE ""
#endif

/// CPU brand string from CPUID (no file access needed).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    if (!s.empty()) return s;
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Why this build must not be timed, or empty when it may.
std::string refusal() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  std::string type = EGEMM_E2E_BUILD_TYPE;
  for (char& c : type) c = static_cast<char>(std::tolower(c));
  if (type == "debug") return "Debug build";
  if (std::string(EGEMM_E2E_SANITIZE).size() > 0) {
    return std::string("sanitizer build (EGEMM_SANITIZE=") +
           EGEMM_E2E_SANITIZE + ")";
  }
  return "";
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  obs::append_json_escaped(out, s);
  out += '"';
}

/// Where and how the numbers were produced.
std::string provenance_json(std::size_t workers) {
  std::string out = "{\"git_sha\": ";
  append_string(out, EGEMM_E2E_GIT_SHA);
  out += ", \"cpu_model\": ";
  append_string(out, cpu_model());
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"pool_workers\": " + std::to_string(workers);
  out += ", \"isa\": ";
  append_string(out, simd::active_isa_name());
  out += ", \"compiler\": ";
  append_string(out, compiler());
  out += ", \"build_type\": ";
  append_string(out, EGEMM_E2E_BUILD_TYPE);
  out += std::string(", \"observability\": \"") +
         (obs::kEnabled ? "ON" : "OFF") + "\"}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage(const char* message) {
  std::fprintf(stderr,
               "egemm_e2e: %s\nusage: egemm_e2e --workload=NAME [--seed=N] "
               "[--duration-s=S] [--smoke] [--traced [--trace=FILE]] "
               "[--json=FILE]\nworkloads:",
               message);
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::string name = args.value_or("workload", std::string());
  const std::int64_t seed = args.value_or("seed", std::int64_t{1});
  const double duration_s = args.value_or("duration-s", 20.0);
  const bool smoke = args.has_flag("smoke");
  const bool traced = args.has_flag("traced");
  const std::string trace_path = args.value_or("trace", std::string());
  const std::string json_path = args.value_or("json", std::string());
  if (seed < 0) return usage("--seed must be >= 0");
  if (!(duration_s > 0.0)) return usage("--duration-s must be > 0");
  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "egemm_e2e: refusing to time a %s\n", why.c_str());
    return 2;
  }
  std::unique_ptr<Workload> w =
      make_workload(name, static_cast<std::uint64_t>(seed));
  if (!w) return usage(("unknown workload '" + name + "'").c_str());
  if (traced && !obs::kEnabled) {
    std::fprintf(stderr,
                 "egemm_e2e: --traced needs EGEMM_OBSERVABILITY=ON\n");
    return 2;
  }
  obs::set_thread_name("main");
  util::ThreadPool& pool = util::global_pool();

  std::vector<double> cold_s;
  for (int pass = 0; pass < kColdPasses; ++pass) {
    const std::uint64_t t0 = now_ns();
    w->cold_pass();
    cold_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  w->warm();

  Metrics metrics;
  if (traced) {
    probe_kernels(metrics);
    probe_workload_layers(w->layer_inputs(), metrics);
  }

  const double traced_s = traced ? std::min(5.0, duration_s / 2.0) : 0.0;
  const std::uint64_t fixed_ops = smoke ? w->smoke_ops() : 0;
  std::uint64_t next_op = 0;
  const util::WorkerStats pool_before = pool.total_stats();
  const Window window =
      run_window(*w, next_op, duration_s - traced_s, fixed_ops, nullptr);
  const util::WorkerStats pool_after = pool.total_stats();

  Window traced_win;
  TraceCollector trace(trace_path.empty() ? 0 : kTraceFileEvents);
  if (traced) {
    obs::clear_call_records();
    obs::clear_trace();
    obs::set_tracing(true);
    traced_win = run_window(*w, next_op, traced_s, fixed_ops, &trace);
    obs::set_tracing(false);
  }
  const gemm::GemmContext& ctx = w->context();
  const auto plan_hits = static_cast<double>(ctx.plan_hits());
  const auto plan_misses = static_cast<double>(ctx.plan_misses());
  const double rss_mb = peak_rss_mb();

  const CheckResult check = w->check();
  const std::uint64_t attempted = window.ops + traced_win.ops;
  const std::uint64_t failed =
      window.failed + traced_win.failed + check.failed_ops;

  metrics["gflops"] = {window.flops / window.wall_s / 1e9, "GFLOP/s"};
  metrics["op_p50_ms"] = {quantile(window.op_ms, 0.5), "ms"};
  metrics["op_p90_ms"] = {quantile(window.op_ms, 0.9), "ms"};
  metrics["setup_s"] = {quantile(cold_s, 0.5), "s"};
  metrics["peak_rss_mb"] = {rss_mb, "MB"};
  metrics["verify.err_over_bound"] = {check.err_over_bound, "ratio"};
  metrics["fail_frac"] = {static_cast<double>(failed) /
                              static_cast<double>(attempted),
                          "ratio"};
  if (traced) {
    const auto workers = static_cast<double>(pool.size());
    const double busy_ns =
        static_cast<double>(pool_after.busy_ns - pool_before.busy_ns);
    const double tasks = static_cast<double>(pool_after.tasks_executed -
                                             pool_before.tasks_executed);
    const double inline_tasks = static_cast<double>(pool_after.inline_tasks -
                                                    pool_before.inline_tasks);
    metrics["util.pool_busy_frac"] = {
        busy_ns / (window.wall_s * 1e9 * workers), "ratio"};
    metrics["util.inline_task_frac"] = {
        tasks + inline_tasks > 0 ? inline_tasks / (tasks + inline_tasks) : 0.0,
        "ratio"};
    metrics["gemm.plan_hit_ratio"] = {
        plan_hits + plan_misses > 0 ? plan_hits / (plan_hits + plan_misses)
                                    : 0.0,
        "ratio"};
    metrics["obs.trace_overhead"] = {
        traced_win.op_rate() / window.op_rate() - 1.0, "ratio"};
    for (const char* app : {"apps.kmeans_ms", "apps.knn_ms", "apps.pca_ms"}) {
      metrics[app] = {0.0, "ms"};
    }
    metrics["apps.kmeans_iters"] = {0.0, "count"};
    w->report(metrics);
    trace.report(metrics["simd.mma_gflops_1t"].value, pool.size(), metrics);
    if (!trace_path.empty() && !trace.write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "egemm_e2e: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }

  std::string out =
      "{\n  \"schema\": \"egemm-e2e-result/1\",\n  \"workload\": ";
  append_string(out, name);
  out += ",\n  \"seed\": " + std::to_string(seed);
  out += ",\n  \"duration_s\": ";
  append_number(out, duration_s);
  out += std::string(",\n  \"smoke\": ") + (smoke ? "true" : "false");
  out += std::string(",\n  \"traced\": ") + (traced ? "true" : "false");
  out += ",\n  \"provenance\": " + provenance_json(pool.size());
  out += std::string(",\n  \"correct\": ") + (failed == 0 ? "true" : "false");
  out += ",\n  \"attempted\": " + std::to_string(attempted);
  out += ",\n  \"failed\": " + std::to_string(failed);
  out += ",\n  \"checked_ops\": " + std::to_string(check.checked_ops);
  out += ",\n  \"window\": {\"ops\": " + std::to_string(window.ops) +
         ", \"wall_s\": ";
  append_number(out, window.wall_s);
  out += ", \"traced_ops\": " + std::to_string(traced_win.ops) +
         ", \"traced_wall_s\": ";
  append_number(out, traced_win.wall_s);
  out += "},\n  \"metrics\": {";
  bool first = true;
  for (const auto& [key, metric] : metrics) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_string(out, key);
    out += ": {\"value\": ";
    append_number(out, metric.value);
    out += ", \"unit\": ";
    append_string(out, metric.unit);
    out += "}";
  }
  out += "\n  }";
  if (traced) out += ",\n  \"classes\": " + trace.classes_json();
  out += "\n}\n";

  if (json_path.empty()) {
    std::cout << out;
  } else {
    std::ofstream file(json_path);
    file << out;
    if (!file.flush()) {
      std::fprintf(stderr, "egemm_e2e: cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "%s seed %lld: %llu ops in %.2f s, %.4g GFLOP/s, p50 %.4g ms, "
               "p90 %.4g ms, setup %.4g s, peak RSS %.1f MB, "
               "err/bound %.3g, %llu checked, %llu failed\n",
               name.c_str(), static_cast<long long>(seed),
               static_cast<unsigned long long>(window.ops), window.wall_s,
               metrics["gflops"].value, metrics["op_p50_ms"].value,
               metrics["op_p90_ms"].value, metrics["setup_s"].value, rss_mb,
               check.err_over_bound,
               static_cast<unsigned long long>(check.checked_ops),
               static_cast<unsigned long long>(failed));
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace egemm::e2e

int main(int argc, char** argv) { return egemm::e2e::run(argc, argv); }
