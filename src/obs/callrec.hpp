#pragma once
// Structured per-call records (DESIGN.md §17): every GemmPlan::execute
// deposits one CallRecord -- shape, scheme, ISA tier, plan-lookup outcome,
// per-stage nanoseconds, moved bytes and effective FLOPs -- into a
// lock-free per-thread ring. A consumer drains the rings at quiescence (or
// periodically) and aggregates them into per-shape-class stage attribution
// with log-linear latency quantiles (obs/latency.hpp).
//
// Concurrency contract: each ring is single-producer (its owning thread)
// and the producer never blocks -- when the ring is full the NEW record is
// dropped and the dropped counter bumped, mirroring the trace buffer's cap
// semantics. Consumers serialize against each other on a global mutex and
// synchronize with producers through release/acquire head/tail pairs, so
// the whole path is data-race-free under TSan without any producer-side
// lock or RMW.
//
// With EGEMM_OBSERVABILITY=OFF the recording entry point compiles to a
// no-op and drains always return empty; the aggregation types stay
// available so tooling builds unconditionally.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/latency.hpp"
#include "obs/metrics.hpp"

namespace egemm::obs {

/// How the executed plan was obtained immediately before this call on the
/// calling thread: a plan-cache hit, a miss (fresh build), or unknown (the
/// caller held the plan across calls, or the backend is direct).
enum class PlanLookup : std::uint8_t { kUnknown = 0, kHit = 1, kMiss = 2 };

/// One GemmPlan::execute -- or one shape class of a grouped batch -- in
/// 96 bytes. Stage fields cover the emulated pipeline
/// (split/pack/mma/combine); direct binary32 backends carry only
/// total_ns. The stages are the calling thread's prep and engine wall
/// segments apportioned by per-item weights (split/pack by prep time,
/// mma/combine by engine time), so split+pack+mma+combine approaches
/// total_ns from below (the residual is workspace lease, output init and
/// bookkeeping). Grouped executes deposit one record per shape class
/// sharing the batch's process-unique batch_id, with `batch` counting the
/// class's items; the records' total_ns sum to at most the batch wall.
struct CallRecord {
  std::uint64_t start_ns = 0;    ///< obs::monotonic_ns() at entry
  std::uint64_t total_ns = 0;    ///< wall time of the whole execute
  std::uint64_t split_ns = 0;    ///< plane-decomposition pass
  std::uint64_t pack_ns = 0;     ///< tile packing
  std::uint64_t mma_ns = 0;      ///< emulated Tensor Core compute
  std::uint64_t combine_ns = 0;  ///< accumulator writeback
  std::uint64_t flops = 0;       ///< effective FLOPs (2 m n k)
  std::uint64_t bytes_moved = 0; ///< inputs + output + workspace traffic
  std::uint32_t m = 0, n = 0, k = 0;
  std::uint32_t tid = 0;         ///< obs::current_thread_id()
  std::uint32_t batch_id = 0;    ///< grouped-execute id; 0 = unbatched
  std::uint32_t batch = 1;       ///< GEMMs this record covers (1 = single)
  std::int8_t scheme = -1;       ///< core::SchemeId, -1 direct/custom
  std::uint8_t backend = 0;      ///< gemm::Backend value
  std::uint8_t isa = 0;          ///< simd::IsaLevel value
  PlanLookup lookup = PlanLookup::kUnknown;
};

/// Runtime switch for call recording (default on; the producer cost is one
/// ring store plus the per-stage clock reads in the execute path).
bool call_records_enabled() noexcept;
void set_call_records(bool enabled) noexcept;

/// Deposits one record into the calling thread's ring; drops it (and bumps
/// the dropped count plus the callrec.dropped counter) when the ring is
/// full. No-op when disabled or compiled out.
void record_call(const CallRecord& rec);

/// Removes and returns every buffered record across all threads, oldest
/// first per thread. Safe to call concurrently with producers.
std::vector<CallRecord> drain_call_records();

/// Records dropped at full rings since start / the last clear.
std::uint64_t dropped_call_records() noexcept;

/// Discards all buffered records and zeroes the dropped count.
void clear_call_records();

// -- aggregation -------------------------------------------------------------

/// Per-(shape, recipe, ISA) aggregate: totals, stage attribution, and a
/// log-linear latency accumulator over per-call total_ns, so quantile
/// columns inherit kLatencyQuantileRelErr.
struct CallClassSummary {
  std::uint32_t m = 0, n = 0, k = 0;
  std::uint32_t batch = 1;  ///< items per record in this class
  std::int8_t scheme = -1;
  std::uint8_t backend = 0;
  std::uint8_t isa = 0;

  std::uint64_t calls = 0;
  std::uint64_t gemms = 0;           ///< sum of record batch sizes
  std::uint64_t batched_records = 0; ///< records with a nonzero batch_id
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  /// Records whose plan lookup is PlanLookup::kUnknown (held plans,
  /// grouped batches); hits + misses + unknown == calls.
  std::uint64_t plan_unknown = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t split_ns = 0;
  std::uint64_t pack_ns = 0;
  std::uint64_t mma_ns = 0;
  std::uint64_t combine_ns = 0;
  std::uint64_t flops = 0;
  std::uint64_t bytes_moved = 0;
  LatencyAccumulator latency;

  /// Aggregate effective rate; FLOPs per nanosecond is numerically GFLOP/s.
  double gflops() const noexcept {
    return total_ns == 0 ? 0.0
                         : static_cast<double>(flops) /
                               static_cast<double>(total_ns);
  }
  /// Fraction of wall time the four stages account for (<= ~1; the
  /// remainder is workspace lease/resize bookkeeping).
  double stage_coverage() const noexcept {
    return total_ns == 0
               ? 0.0
               : static_cast<double>(split_ns + pack_ns + mma_ns +
                                     combine_ns) /
                     static_cast<double>(total_ns);
  }
};

struct CallSummary {
  std::vector<CallClassSummary> classes;  ///< sorted by (m, n, k, scheme)
  std::uint64_t records = 0;              ///< records aggregated
  std::uint64_t dropped = 0;              ///< dropped_call_records() at build
};

/// Groups records by (m, n, k, batch, scheme, backend, isa) and
/// reduces each group, so batched traffic is attributed per batch class
/// rather than folded into the single-call rows. `dropped` is stamped from
/// the live dropped count.
CallSummary summarize_calls(std::span<const CallRecord> records);

/// Optional id -> name resolvers for the JSON block below. The obs layer
/// sits below core/gemm/simd, so callers that know those enums (the bench
/// harness, egemm_stats) pass their name functions in; with a null
/// resolver only the numeric id is emitted.
struct CallJsonNames {
  const char* (*scheme)(std::int8_t) = nullptr;
  const char* (*backend)(std::uint8_t) = nullptr;
  const char* (*isa)(std::uint8_t) = nullptr;
};

/// The summary as a JSON object (same embedding convention as
/// metrics_json_block: lines after the first prefixed with `indent`, no
/// trailing newline) for BENCH_micro.json / egemm_stats --json.
std::string call_summary_json_block(const CallSummary& summary,
                                    const std::string& indent = "  ",
                                    const CallJsonNames& names = {});

}  // namespace egemm::obs
