// Per-layer measurements of the end-to-end benchmark: probes timed from
// outside the library, and the traced window's span and call-record
// analysis.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>

#include "core/scheme.hpp"
#include "core/split.hpp"
#include "e2e.hpp"
#include "gemm/packing.hpp"
#include "obs/export.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace egemm::e2e {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/// Median over `reps` repetitions of the mean nanoseconds per call of
/// `fn`, each repetition making `calls` calls. The first repetition warms
/// caches and buffers like every other; the median discards it if slow.
template <typename Fn>
double median_call_ns(Fn&& fn, std::size_t calls, std::size_t reps = 7) {
  std::vector<double> per_call;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t c = 0; c < calls; ++c) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(calls));
  }
  return quantile(std::move(per_call), 0.5);
}

/// Values on a binary16-exact grid, as the microkernel's planes hold.
void fill_half_valued(std::span<float> out, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (float& x : out) {
    x = static_cast<float>(static_cast<int>(rng.below(64)) - 32) / 32.0f;
  }
}

/// Splits `m` into `planes` binary16-valued planes (plane 0 lowest order,
/// as the plan layer stores them).
std::vector<gemm::Matrix> split_planes(const gemm::Matrix& m, int planes) {
  std::vector<gemm::Matrix> out(static_cast<std::size_t>(planes),
                                gemm::Matrix(m.rows(), m.cols()));
  if (planes == 3) {
    core::split3_span_f32(m.data(), out[2].data(), out[1].data(),
                          out[0].data());
  } else {
    core::split_span_f32(m.data(), out[1].data(), out[0].data(),
                         core::SplitMethod::kRoundSplit);
  }
  return out;
}

/// Adds every span's self time -- its duration minus what its same-thread
/// children cover -- to `self`, keyed by span name.
void accumulate_self_times(std::vector<obs::TraceEvent> events,
                           std::map<std::string, std::uint64_t>& self) {
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;  // parent before a same-start child
            });
  struct Open {
    const obs::TraceEvent* event;
    std::uint64_t child_ns;
  };
  std::vector<Open> stack;
  const auto close = [&](const Open& open) {
    self[open.event->name] +=
        open.event->dur_ns - std::min(open.child_ns, open.event->dur_ns);
  };
  for (const obs::TraceEvent& e : events) {
    while (!stack.empty() &&
           (stack.back().event->tid != e.tid ||
            stack.back().event->start_ns + stack.back().event->dur_ns <=
                e.start_ns)) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_ns += e.dur_ns;
    stack.push_back({&e, 0});
  }
  for (; !stack.empty(); stack.pop_back()) close(stack.back());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void probe_kernels(Metrics& out) {
  const simd::KernelTable& kernels = simd::active_kernels();

  constexpr std::size_t kConvertElems = 64 * 1024;
  std::vector<float> in(kConvertElems), converted(kConvertElems);
  fill_half_valued(in, 1);
  for (float& x : in) x *= 1.0009765625f;  // off the binary16 grid
  out["simd.convert_ns_per_elem"] = {
      median_call_ns(
          [&] {
            kernels.f32_round_through_f16(in.data(), converted.data(),
                                          kConvertElems, true);
          },
          200) /
          static_cast<double>(kConvertElems),
      "ns/elem"};

  // One 16x16x256 slab on the calling thread.
  constexpr int kSlabK = 256;
  constexpr std::size_t kTile = simd::kMmaTile;
  alignas(64) float a[kTile * kSlabK];
  alignas(64) float b[kSlabK * kTile];
  alignas(64) float acc[kTile * kTile] = {};
  fill_half_valued(a, 2);
  fill_half_valued(b, 3);
  const double slab_ns = median_call_ns(
      [&] { kernels.mma_block_packed(acc, a, kSlabK, b, kSlabK); }, 2000);
  out["simd.mma_gflops_1t"] = {
      2.0 * static_cast<double>(kTile * kTile * kSlabK) / slab_ns, "GFLOP/s"};

  util::ThreadPool& pool = util::global_pool();
  const auto no_op = [](std::size_t, std::size_t) {};
  out["util.fork_join_us"] = {
      median_call_ns([&] { pool.parallel_for(pool.size(), no_op); }, 500) / 1e3,
      "us"};
}

void probe_workload_layers(const LayerInputs& in, Metrics& out) {
  std::vector<const gemm::Matrix*> operands = in.a;
  operands.insert(operands.end(), in.b.begin(), in.b.end());
  std::size_t elems = 0, largest = 0;
  for (const gemm::Matrix* m : operands) {
    elems += m->size();
    largest = std::max(largest, m->size());
  }

  std::vector<float> p0(largest), p1(largest), p2(largest);
  const double split_ns = median_call_ns(
      [&] {
        for (const gemm::Matrix* m : operands) {
          const std::span<float> hi(p0.data(), m->size());
          const std::span<float> mid(p1.data(), m->size());
          const std::span<float> lo(p2.data(), m->size());
          if (in.planes == 3) {
            core::split3_span_f32(m->data(), hi, mid, lo);
          } else {
            core::split_span_f32(m->data(), hi, lo,
                                 core::SplitMethod::kRoundSplit);
          }
        }
      },
      1);
  out["core.split_ns_per_elem"] = {split_ns / static_cast<double>(elems),
                                   "ns/elem"};

  std::vector<std::vector<gemm::Matrix>> a_planes, b_planes;
  for (const gemm::Matrix* m : in.a) {
    a_planes.push_back(split_planes(*m, in.planes));
  }
  for (const gemm::Matrix* m : in.b) {
    b_planes.push_back(split_planes(*m, in.planes));
  }
  gemm::PackedPlanesA apack;
  gemm::PackedPlanesB bpack;
  const double pack_ns = median_call_ns(
      [&] {
        for (const auto& planes : a_planes) apack.assign(planes);
        for (const auto& planes : b_planes) bpack.assign(planes);
      },
      1);
  out["gemm.pack_ns_per_elem"] = {pack_ns / static_cast<double>(elems),
                                  "ns/elem"};

  const auto shapes = static_cast<double>(in.shapes.size());
  std::vector<double> build_ns;
  std::size_t workspace_bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    gemm::GemmContext fresh;
    const std::uint64_t t0 = now_ns();
    for (const Shape& s : in.shapes) {
      workspace_bytes =
          std::max(workspace_bytes, in.plan(fresh, s)->workspace_bytes());
    }
    build_ns.push_back(static_cast<double>(now_ns() - t0) / shapes);
  }
  out["gemm.plan_build_us"] = {quantile(build_ns, 0.5) / 1e3, "us"};
  out["gemm.workspace_mb"] = {static_cast<double>(workspace_bytes) / (1 << 20),
                              "MB"};

  gemm::GemmContext warm;
  for (const Shape& s : in.shapes) static_cast<void>(in.plan(warm, s));
  out["gemm.plan_hit_ns"] = {
      median_call_ns(
          [&] {
            for (const Shape& s : in.shapes) {
              static_cast<void>(in.plan(warm, s));
            }
          },
          200) /
          shapes,
      "ns"};
}

void TraceCollector::after_op(std::uint64_t op_ns) {
  ++ops_;
  op_ns_ += op_ns;
  const std::vector<obs::CallRecord> records = obs::drain_call_records();
  records_.insert(records_.end(), records.begin(), records.end());

  std::vector<obs::TraceEvent> events = obs::collect_trace();
  // clear_trace() also zeroes the drop count, so fold it in first.
  dropped_spans_ += obs::dropped_trace_events();
  if (kept_.size() < keep_) {
    for (const auto& [tid, name] : obs::trace_thread_names()) {
      thread_names_[tid] = name;
    }
    const std::size_t take = std::min(keep_ - kept_.size(), events.size());
    kept_.insert(kept_.end(), events.begin(),
                 events.begin() + static_cast<std::ptrdiff_t>(take));
  }
  obs::clear_trace();
  accumulate_self_times(std::move(events), self_ns_);
}

void TraceCollector::report(double mma_gflops_1t, std::size_t workers,
                            Metrics& out) const {
  double total = 0, split = 0, pack = 0, mma = 0, combine = 0, flops = 0,
         bytes = 0;
  for (const obs::CallRecord& r : records_) {
    total += static_cast<double>(r.total_ns);
    split += static_cast<double>(r.split_ns);
    pack += static_cast<double>(r.pack_ns);
    mma += static_cast<double>(r.mma_ns);
    combine += static_cast<double>(r.combine_ns);
    flops += static_cast<double>(r.flops);
    bytes += static_cast<double>(r.bytes_moved);
  }
  out["gemm.split_share"] = {ratio(split, total), "ratio"};
  out["gemm.pack_share"] = {ratio(pack, total), "ratio"};
  out["gemm.mma_share"] = {ratio(mma, total), "ratio"};
  out["gemm.combine_share"] = {ratio(combine, total), "ratio"};
  out["gemm.other_share"] = {
      ratio(total - split - pack - mma - combine, total), "ratio"};
  // FLOPs per nanosecond is numerically GFLOP/s.
  const double mma_rate = ratio(flops, mma);
  out["gemm.mma_stage_gflops"] = {mma_rate, "GFLOP/s"};
  out["gemm.mma_ceiling_frac"] = {
      ratio(mma_rate, mma_gflops_1t * static_cast<double>(workers)), "ratio"};
  out["gemm.computed_bytes_per_flop"] = {ratio(bytes, flops), "B/FLOP"};
  out["apps.gemm_share"] = {ratio(total, static_cast<double>(op_ns_)), "ratio"};

  for (const char* name :
       {"bench.op", "bench.kmeans", "bench.knn", "bench.pca", "egemm_multiply",
        "egemm_grouped", "plan", "split", "pack", "mma", "combine"}) {
    const auto it = self_ns_.find(name);
    const double ns =
        it == self_ns_.end() ? 0.0 : static_cast<double>(it->second);
    out[std::string("trace.") + name + ".self_ms"] = {
        ratio(ns, static_cast<double>(ops_)) / 1e6, "ms"};
  }
  out["obs.callrec_dropped"] = {
      static_cast<double>(obs::dropped_call_records()), "count"};
  out["obs.trace_dropped_spans"] = {static_cast<double>(dropped_spans_),
                                    "count"};
}

std::string TraceCollector::classes_json() const {
  const obs::CallSummary summary = obs::summarize_calls(records_);
  std::string out = "[";
  for (std::size_t i = 0; i < summary.classes.size(); ++i) {
    const obs::CallClassSummary& c = summary.classes[i];
    const auto total = static_cast<double>(c.total_ns);
    const auto share = [&](std::uint64_t ns) {
      return ratio(static_cast<double>(ns), total);
    };
    const char* scheme =
        c.scheme >= 0 && static_cast<std::size_t>(c.scheme) < core::kSchemeCount
            ? core::scheme_name(static_cast<core::SchemeId>(c.scheme))
            : "custom";
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"m\": %u, \"n\": %u, \"k\": %u, \"batch\": %u, "
        "\"scheme\": \"%s\", \"calls\": %llu, \"gflops\": %.6g, "
        "\"split_share\": %.6g, \"pack_share\": %.6g, \"mma_share\": %.6g, "
        "\"combine_share\": %.6g, \"other_share\": %.6g}",
        i == 0 ? "" : ",", c.m, c.n, c.k, c.batch, scheme,
        static_cast<unsigned long long>(c.calls), c.gflops(), share(c.split_ns),
        share(c.pack_ns), share(c.mma_ns), share(c.combine_ns),
        1.0 - share(c.split_ns + c.pack_ns + c.mma_ns + c.combine_ns));
    out += buf;
  }
  out += summary.classes.empty() ? "]" : "\n  ]";
  return out;
}

bool TraceCollector::write_chrome_trace(const std::string& path) const {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& [tid, name] : thread_names_) {
    out += first ? "" : ",\n";
    first = false;
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(tid) + ", \"args\": {\"name\": \"";
    obs::append_json_escaped(out, name);
    out += "\"}}";
  }
  for (const obs::TraceEvent& e : kept_) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
                  first ? "" : ",\n", e.name, e.tid,
                  static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3);
    first = false;
    out += buf;
  }
  out += "\n]}\n";
  std::ofstream file(path);
  file << out;
  return static_cast<bool>(file.flush());
}

}  // namespace egemm::e2e
