#pragma once
// Shared types of the end-to-end benchmark (README.md in this directory).
//
// The benchmark drives the library only through its public headers: every
// layer is timed from outside, around calls into gemm/, core/, simd/,
// util/ and apps/, and every workload's outputs are checked against
// verify/ after the timed window.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "obs/callrec.hpp"
#include "obs/trace.hpp"

namespace egemm::e2e {

/// One named measurement with its unit, as it appears in the result JSON.
struct Metric {
  double value = 0.0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

struct Shape {
  std::size_t m = 0, n = 0, k = 0;
};

inline std::uint64_t gemm_flops(const Shape& s) {
  return 2ULL * s.m * s.n * s.k;
}

/// Verdict of a workload's correctness gate.
struct CheckResult {
  std::uint64_t checked_ops = 0;  ///< ops whose outputs were verified
  std::uint64_t failed_ops = 0;   ///< of those, ops that missed a tolerance
  /// Largest measured error as a fraction of its tolerance: the a-priori
  /// element bound for GEMM outputs, the stated check limits for the apps.
  double err_over_bound = 0.0;
};

/// What the per-layer probes need to know about a workload.
struct LayerInputs {
  std::vector<const gemm::Matrix*> a;  ///< A operands as the GEMMs see them
  std::vector<const gemm::Matrix*> b;  ///< B operands
  int planes = 2;                      ///< split depth of the workload's rung
  std::vector<Shape> shapes;           ///< distinct planned shapes
  std::function<std::shared_ptr<const gemm::GemmPlan>(gemm::GemmContext&,
                                                      const Shape&)>
      plan;
};

/// One workload: a fixed input set generated from the seed, and the op the
/// timed window repeats against it.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One cold pass on a fresh GemmContext: plan builds, workspace growth
  /// and the first compute over the op cycle (apps: one round).
  virtual void cold_pass() = 0;
  /// Fills the window context's caches before timing.
  virtual void warm() = 0;
  /// Runs op `i` of the window and returns its useful FLOPs. Keeps the
  /// outputs check() verifies.
  virtual std::uint64_t op(std::uint64_t i) = 0;
  /// Verifies the kept outputs; runs after the window.
  virtual CheckResult check() = 0;
  /// The context the window's plan lookups go through.
  virtual gemm::GemmContext& context() = 0;
  virtual LayerInputs layer_inputs() = 0;
  /// Workload-specific per-layer metrics from the window (apps.*).
  virtual void report(Metrics& /*out*/) const {}
  /// Fixed op count of a --smoke run.
  virtual std::uint64_t smoke_ops() const = 0;
};

/// The four workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// -- measurement helpers (layers.cpp) ----------------------------------------

/// Nanoseconds on the steady clock.
std::uint64_t now_ns();

/// Linear-interpolated quantile of `values` (copied and sorted), q in [0, 1].
double quantile(std::vector<double> values, double q);

/// Probes that do not depend on the workload: converter and microkernel
/// rates on the calling thread, and the pool's fork-join round trip.
void probe_kernels(Metrics& out);

/// Split, pack and plan-cache probes over a workload's operands and shapes.
void probe_workload_layers(const LayerInputs& in, Metrics& out);

/// Consumes spans and call records after every op of the traced window:
/// span self times, stage attribution, and the first events for the
/// Chrome trace file.
class TraceCollector {
 public:
  explicit TraceCollector(std::size_t keep_events) : keep_(keep_events) {}

  /// Drains the call-record rings and the span buffers; `op_ns` is the
  /// op's wall time as the window measured it.
  void after_op(std::uint64_t op_ns);

  /// Stage shares, computed rates, self times and drop counts.
  void report(double mma_gflops_1t, std::size_t workers, Metrics& out) const;

  /// Per-shape-class stage attribution as a JSON array.
  std::string classes_json() const;

  /// Writes the kept events as Chrome trace_event JSON.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::size_t keep_;
  std::uint64_t ops_ = 0;
  std::uint64_t op_ns_ = 0;
  std::uint64_t dropped_spans_ = 0;
  std::vector<obs::CallRecord> records_;
  std::map<std::string, std::uint64_t> self_ns_;
  std::vector<obs::TraceEvent> kept_;
  std::map<std::uint32_t, std::string> thread_names_;
};

}  // namespace egemm::e2e
