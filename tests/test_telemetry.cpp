// Tests for the per-call telemetry layer (DESIGN.md §17): log-linear
// latency histogram geometry and quantile accuracy, the lock-free call
// record rings under concurrency (the TSan CI lane runs this binary), the
// per-shape aggregation, the execute-path integration, and the exporters
// (OpenMetrics exposition + latency JSON section).
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheme.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "obs/callrec.hpp"
#include "obs/export.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace egemm::obs {
namespace {

// -- bucket geometry ---------------------------------------------------------

TEST(LatencyBuckets, LinearRegionIsExact) {
  for (std::uint64_t v = 0; v < kLatencyLinearMax; ++v) {
    EXPECT_EQ(latency_bucket_index(v), static_cast<std::size_t>(v));
    EXPECT_EQ(latency_bucket_lower(latency_bucket_index(v)), v);
    EXPECT_EQ(latency_bucket_width(latency_bucket_index(v)), 1u);
    EXPECT_EQ(latency_bucket_representative(latency_bucket_index(v)), v);
  }
}

TEST(LatencyBuckets, EveryValueLandsInsideItsBucket) {
  // Sweep magnitudes with a few offsets per octave; the invariant is
  // lower <= v < lower + width, and indices never decrease with v.
  std::vector<std::uint64_t> values;
  for (int w = 0; w < 63; ++w) {
    for (const std::uint64_t off :
         {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << w) / 3,
          (std::uint64_t{1} << w) - 1}) {
      values.push_back((std::uint64_t{1} << w) + off);
    }
  }
  std::sort(values.begin(), values.end());
  std::size_t prev_index = 0;
  for (const std::uint64_t v : values) {
    const std::size_t bucket = latency_bucket_index(v);
    ASSERT_LT(bucket, kLatencyBuckets);
    EXPECT_GE(bucket, prev_index) << "v=" << v;
    if (bucket + 1 < kLatencyBuckets) {
      EXPECT_GE(v, latency_bucket_lower(bucket));
      EXPECT_LT(v,
                latency_bucket_lower(bucket) + latency_bucket_width(bucket));
    }
    prev_index = bucket;
  }
  EXPECT_EQ(latency_bucket_index(~std::uint64_t{0}), kLatencyBuckets - 1);
}

TEST(LatencyBuckets, RelativeWidthBoundHolds) {
  // The quantile error contract: every non-saturating bucket is narrower
  // than kLatencyQuantileRelErr of its lower bound (octave region), or
  // exact (linear region).
  for (std::size_t b = kLatencyLinearMax; b + 1 < kLatencyBuckets; ++b) {
    EXPECT_LE(static_cast<double>(latency_bucket_width(b)),
              kLatencyQuantileRelErr *
                  static_cast<double>(latency_bucket_lower(b)))
        << "bucket " << b;
  }
}

// -- quantile accuracy -------------------------------------------------------

/// Exact nearest-rank quantile of a sorted sample -- the definition the
/// histogram-side latency_quantile mirrors bucket-wise.
std::uint64_t exact_quantile(std::vector<std::uint64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto count = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * count));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

void expect_quantiles_within_bound(const std::vector<std::uint64_t>& sample,
                                   const char* label) {
  LatencyAccumulator acc;
  for (const std::uint64_t v : sample) acc.record(v);
  ASSERT_EQ(acc.count(), sample.size());
  // A representative can sit up to half a bucket width from the exact
  // value; kLatencyQuantileRelErr bounds the full width, so it bounds the
  // representative error with slack. Allow a hair of float headroom.
  const double tol = kLatencyQuantileRelErr + 1e-9;
  for (const double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const double exact = static_cast<double>(exact_quantile(sample, q));
    const double approx = static_cast<double>(acc.quantile(q));
    EXPECT_LE(std::abs(approx - exact), tol * exact)
        << label << " q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(LatencyQuantiles, UniformDistribution) {
  util::Xoshiro256 rng(7);
  std::vector<std::uint64_t> sample;
  sample.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    sample.push_back(1 + rng.below(1'000'000));
  }
  expect_quantiles_within_bound(sample, "uniform");
}

TEST(LatencyQuantiles, LognormalDistribution) {
  // exp(N(10, 2)) ns: median ~22 us with a heavy tail into seconds --
  // the shape real per-call latencies have.
  util::NormalSampler normal(11);
  std::vector<std::uint64_t> sample;
  sample.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp(10.0 + 2.0 * normal.next());
    sample.push_back(static_cast<std::uint64_t>(std::max(v, 1.0)));
  }
  expect_quantiles_within_bound(sample, "lognormal");
}

TEST(LatencyQuantiles, BimodalDistribution) {
  // Plan-hit fast path vs cold miss: two tight modes three decades apart.
  util::Xoshiro256 rng(13);
  std::vector<std::uint64_t> sample;
  sample.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const bool fast = rng.below(100) < 90;
    sample.push_back(fast ? 2'000 + rng.below(500)
                          : 3'000'000 + rng.below(400'000));
  }
  expect_quantiles_within_bound(sample, "bimodal");
}

TEST(LatencyQuantiles, EmptyAndSingleton) {
  LatencyAccumulator acc;
  EXPECT_EQ(acc.quantile(0.5), 0u);
  acc.record(17);
  EXPECT_EQ(acc.quantile(0.0), 17u);
  EXPECT_EQ(acc.quantile(0.5), 17u);
  EXPECT_EQ(acc.quantile(1.0), 17u);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_EQ(acc.sum(), 17u);
}

TEST(LatencyQuantiles, MergeMatchesCombinedRecording) {
  util::Xoshiro256 rng(17);
  LatencyAccumulator a, b, combined;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = 1 + rng.below(1u << 20);
    (i % 2 == 0 ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  for (const double q : {0.5, 0.99}) {
    EXPECT_EQ(a.quantile(q), combined.quantile(q));
  }
}

// -- call-record rings -------------------------------------------------------

TEST(CallRecords, RoundTripPreservesFields) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  clear_call_records();
  CallRecord rec;
  rec.start_ns = 123;
  rec.total_ns = 456;
  rec.split_ns = 40;
  rec.pack_ns = 50;
  rec.mma_ns = 300;
  rec.combine_ns = 60;
  rec.flops = 2ULL * 64 * 64 * 64;
  rec.bytes_moved = 99;
  rec.m = 64;
  rec.n = 64;
  rec.k = 64;
  rec.tid = current_thread_id();
  rec.scheme = 3;
  rec.backend = 0;
  rec.isa = 2;
  rec.lookup = PlanLookup::kMiss;
  record_call(rec);
  const std::vector<CallRecord> drained = drain_call_records();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].start_ns, 123u);
  EXPECT_EQ(drained[0].total_ns, 456u);
  EXPECT_EQ(drained[0].mma_ns, 300u);
  EXPECT_EQ(drained[0].scheme, 3);
  EXPECT_EQ(drained[0].lookup, PlanLookup::kMiss);
  EXPECT_TRUE(drain_call_records().empty());
}

TEST(CallRecords, ConcurrentProducersAndDrainer) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  clear_call_records();
  const std::uint64_t dropped_before = dropped_call_records();
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  std::atomic<bool> stop{false};
  std::vector<CallRecord> drained;
  // Concurrent drainer: exercises the release/acquire head/tail protocol
  // while producers append (the TSan lane would flag any racy slot access).
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<CallRecord> batch = drain_call_records();
      drained.insert(drained.end(), batch.begin(), batch.end());
    }
    std::vector<CallRecord> batch = drain_call_records();
    drained.insert(drained.end(), batch.begin(), batch.end());
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        CallRecord rec;
        rec.m = static_cast<std::uint32_t>(p);
        rec.start_ns = i;
        rec.total_ns = i * 2 + 1;  // field checksum: torn reads would break
        record_call(rec);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  drainer.join();
  const std::uint64_t dropped = dropped_call_records() - dropped_before;
  EXPECT_EQ(drained.size() + dropped, kPerProducer * kProducers);
  // Per-producer order and integrity: sequence numbers strictly increase
  // in drain order (drains preserve per-ring FIFO), and every record's
  // derived field is consistent with its sequence number.
  std::array<std::int64_t, kProducers> last;
  last.fill(-1);
  for (const CallRecord& rec : drained) {
    ASSERT_LT(rec.m, static_cast<std::uint32_t>(kProducers));
    EXPECT_GT(static_cast<std::int64_t>(rec.start_ns), last[rec.m]);
    last[rec.m] = static_cast<std::int64_t>(rec.start_ns);
    EXPECT_EQ(rec.total_ns, rec.start_ns * 2 + 1);
  }
  clear_call_records();
}

TEST(CallRecords, DisableStopsRecording) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  clear_call_records();
  set_call_records(false);
  record_call(CallRecord{});
  EXPECT_TRUE(drain_call_records().empty());
  set_call_records(true);
  record_call(CallRecord{});
  EXPECT_EQ(drain_call_records().size(), 1u);
}

// -- aggregation -------------------------------------------------------------

TEST(CallSummary, GroupsByShapeAndScheme) {
  std::vector<CallRecord> records;
  for (int i = 0; i < 3; ++i) {
    CallRecord rec;
    rec.m = 64;
    rec.n = 64;
    rec.k = 64;
    rec.scheme = 3;
    rec.total_ns = 1000;
    rec.split_ns = 100;
    rec.pack_ns = 100;
    rec.mma_ns = 600;
    rec.combine_ns = 100;
    rec.flops = 2000;
    rec.lookup = i == 0 ? PlanLookup::kMiss : PlanLookup::kHit;
    records.push_back(rec);
  }
  CallRecord other;
  other.m = 128;
  other.n = 32;
  other.k = 16;
  other.scheme = 5;
  other.total_ns = 4000;
  records.push_back(other);

  const CallSummary summary =
      summarize_calls({records.data(), records.size()});
  EXPECT_EQ(summary.records, 4u);
  ASSERT_EQ(summary.classes.size(), 2u);
  const CallClassSummary& cls = summary.classes[0];
  EXPECT_EQ(cls.m, 64u);
  EXPECT_EQ(cls.calls, 3u);
  EXPECT_EQ(cls.plan_hits, 2u);
  EXPECT_EQ(cls.plan_misses, 1u);
  EXPECT_EQ(cls.total_ns, 3000u);
  EXPECT_EQ(cls.mma_ns, 1800u);
  EXPECT_EQ(cls.flops, 6000u);
  EXPECT_DOUBLE_EQ(cls.gflops(), 2.0);  // 6000 FLOP / 3000 ns
  EXPECT_DOUBLE_EQ(cls.stage_coverage(), 0.9);
  // Quantiles report the bucket representative of the recorded value.
  EXPECT_EQ(cls.latency.quantile(0.5),
            latency_bucket_representative(latency_bucket_index(1000)));
  EXPECT_EQ(summary.classes[1].m, 128u);
  EXPECT_EQ(summary.classes[1].calls, 1u);
}

TEST(CallSummary, JsonBlockCarriesNamesAndQuantiles) {
  CallRecord rec;
  rec.m = 8;
  rec.n = 8;
  rec.k = 8;
  rec.scheme = 0;
  rec.total_ns = 16;  // linear-region bucket: quantiles are exact
  const CallSummary summary = summarize_calls({&rec, 1});
  CallJsonNames names;
  names.scheme = [](std::int8_t) -> const char* { return "half"; };
  const std::string json = call_summary_json_block(summary, "", names);
  EXPECT_NE(json.find("\"records\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"scheme_name\": \"half\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\": 16"), std::string::npos);
  EXPECT_NE(json.find("\"stage_coverage\": 0"), std::string::npos);
  // Embeddable block contract: no trailing newline, object-shaped.
  EXPECT_EQ(json.back(), '}');
}

// -- execute-path integration ------------------------------------------------

TEST(CallRecords, ExecuteEmitsHitMissAndStageAttribution) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  clear_call_records();
  gemm::GemmContext ctx;
  const gemm::Matrix a = gemm::random_matrix(33, 29, -1.0f, 1.0f, 1);
  const gemm::Matrix b = gemm::random_matrix(29, 31, -1.0f, 1.0f, 2);
  const gemm::Matrix d1 =
      ctx.run_scheme(core::SchemeId::kRound2, a, b, nullptr);
  const gemm::Matrix d2 =
      ctx.run_scheme(core::SchemeId::kRound2, a, b, nullptr);
  static_cast<void>(d1);
  static_cast<void>(d2);
  const std::vector<CallRecord> records = drain_call_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lookup, PlanLookup::kMiss);
  EXPECT_EQ(records[1].lookup, PlanLookup::kHit);
  for (const CallRecord& rec : records) {
    EXPECT_EQ(rec.m, 33u);
    EXPECT_EQ(rec.n, 31u);
    EXPECT_EQ(rec.k, 29u);
    EXPECT_EQ(rec.flops, 2ULL * 33 * 31 * 29);
    EXPECT_GT(rec.bytes_moved, 0u);
    EXPECT_GT(rec.total_ns, 0u);
    // The four stages are measured segments of the same wall interval.
    EXPECT_LE(rec.split_ns + rec.pack_ns + rec.mma_ns + rec.combine_ns,
              rec.total_ns);
    EXPECT_GT(rec.split_ns + rec.pack_ns + rec.mma_ns + rec.combine_ns, 0u);
    EXPECT_EQ(rec.backend,
              static_cast<std::uint8_t>(gemm::Backend::kEgemmTC));
  }
  // Same plan shared across both calls -> one class, one miss, one hit.
  const CallSummary summary =
      summarize_calls({records.data(), records.size()});
  ASSERT_EQ(summary.classes.size(), 1u);
  EXPECT_EQ(summary.classes[0].plan_hits, 1u);
  EXPECT_EQ(summary.classes[0].plan_misses, 1u);
}

TEST(CallRecords, DirectBackendRecordsTotalOnly) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  clear_call_records();
  gemm::GemmContext ctx;
  const gemm::Matrix a = gemm::random_matrix(24, 24, -1.0f, 1.0f, 3);
  const gemm::Matrix b = gemm::random_matrix(24, 24, -1.0f, 1.0f, 4);
  const gemm::Matrix d = ctx.run(gemm::Backend::kCublasFp32, a, b);
  static_cast<void>(d);
  const std::vector<CallRecord> records = drain_call_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GT(records[0].total_ns, 0u);
  EXPECT_EQ(records[0].split_ns, 0u);
  EXPECT_EQ(records[0].pack_ns, 0u);
  EXPECT_EQ(records[0].mma_ns, 0u);
  EXPECT_EQ(records[0].scheme, -1);
}

TEST(CallRecords, HeldPlanCountsAsUnknownLookup) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  clear_call_records();
  gemm::GemmContext ctx;
  const gemm::Matrix a = gemm::random_matrix(40, 24, -1.0f, 1.0f, 5);
  const gemm::Matrix b = gemm::random_matrix(24, 20, -1.0f, 1.0f, 6);
  const auto held = ctx.plan_scheme(core::SchemeId::kRound2, 40, 20, 24);
  // A later lookup on this thread supersedes the held plan's breadcrumb,
  // so none of the held plan's executes can claim a hit or a miss.
  static_cast<void>(ctx.run_scheme(core::SchemeId::kHalf, a, b));  // miss
  constexpr std::uint64_t kHeldCalls = 5;
  gemm::Matrix d;
  for (std::uint64_t i = 0; i < kHeldCalls; ++i) {
    held->execute(ctx, a, b, nullptr, d);
  }
  static_cast<void>(ctx.run_scheme(core::SchemeId::kHalf, a, b));  // hit

  const std::vector<CallRecord> records = drain_call_records();
  const CallSummary summary =
      summarize_calls({records.data(), records.size()});
  ASSERT_EQ(summary.classes.size(), 2u);
  for (const CallClassSummary& cls : summary.classes) {
    EXPECT_EQ(cls.plan_hits + cls.plan_misses + cls.plan_unknown, cls.calls);
    if (cls.scheme == static_cast<std::int8_t>(core::SchemeId::kRound2)) {
      EXPECT_EQ(cls.calls, kHeldCalls);
      EXPECT_EQ(cls.plan_unknown, kHeldCalls);
    } else {
      EXPECT_EQ(cls.plan_hits, 1u);
      EXPECT_EQ(cls.plan_misses, 1u);
      EXPECT_EQ(cls.plan_unknown, 0u);
    }
  }
  const std::string json = call_summary_json_block(summary, "");
  EXPECT_NE(json.find("\"plan_unknown\": 5"), std::string::npos);
}

// -- registry latency histograms ---------------------------------------------

TEST(LatencyHistogram, MacroRecordsIntoSnapshot) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  for (int i = 0; i < 100; ++i) {
    EGEMM_LATENCY_RECORD("test.telemetry.latency", 1000 + i);
  }
  const MetricsSnapshot snap = registry().snapshot();
  const auto it =
      std::find_if(snap.latencies.begin(), snap.latencies.end(),
                   [](const LatencySample& s) {
                     return s.name == "test.telemetry.latency";
                   });
  ASSERT_NE(it, snap.latencies.end());
  EXPECT_GE(it->count, 100u);
  EXPECT_GT(it->quantile(0.5), 0u);
  // p50 of 1000..1099 within the bucket bound of the exact value.
  EXPECT_NEAR(static_cast<double>(it->quantile(0.5)), 1050.0,
              kLatencyQuantileRelErr * 1100.0);
  // The JSON exporter carries a latency section keyed by name.
  const std::string json = metrics_json_block(snap, "");
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"test.telemetry.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
}

// -- OpenMetrics exposition --------------------------------------------------

TEST(OpenMetrics, ExpositionShape) {
  MetricsSnapshot snap;
  snap.counters.push_back(CounterSample{"egemm.calls", 42});
  snap.gauges.push_back(GaugeSample{"tcsim.isa-level", 2});
  HistogramSample hist;
  hist.name = "gemm.k";
  hist.buckets[3] = 5;
  hist.buckets[4] = 7;
  hist.count = 12;
  hist.sum = 123;
  snap.histograms.push_back(hist);
  LatencySample lat;
  lat.name = "egemm.execute.latency";
  lat.buckets.assign(kLatencyBuckets, 0);
  lat.buckets[latency_bucket_index(1000)] = 9;
  lat.buckets[latency_bucket_index(64000)] = 1;
  lat.count = 10;
  lat.sum = 73000;
  snap.latencies.push_back(lat);

  const std::string text = openmetrics_text(snap);
  // Names sanitized, counters suffixed _total, document ends with # EOF.
  EXPECT_NE(text.find("# TYPE egemm_calls counter\negemm_calls_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("tcsim_isa_level 2\n"), std::string::npos);
  // Bit-width histogram: cumulative buckets, inclusive upper bounds.
  EXPECT_NE(text.find("gemm_k_bucket{le=\"7\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("gemm_k_bucket{le=\"15\"} 12\n"), std::string::npos);
  EXPECT_NE(text.find("gemm_k_bucket{le=\"+Inf\"} 12\n"), std::string::npos);
  EXPECT_NE(text.find("gemm_k_count 12\n"), std::string::npos);
  // Latency histogram in seconds with cumulative buckets.
  EXPECT_NE(text.find("# TYPE egemm_execute_latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("egemm_execute_latency_seconds_bucket{le=\"+Inf\"} 10\n"),
      std::string::npos);
  EXPECT_NE(text.find("egemm_execute_latency_seconds_sum 7.3e-05\n"),
            std::string::npos);
  EXPECT_TRUE(text.ends_with("# EOF\n"));
  // Cumulative bucket counts never decrease and end at _count.
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  while ((pos = text.find("egemm_execute_latency_seconds_bucket{le=",
                          pos)) != std::string::npos) {
    const std::size_t brace = text.find("} ", pos);
    ASSERT_NE(brace, std::string::npos);
    const std::uint64_t cumulative =
        std::strtoull(text.c_str() + brace + 2, nullptr, 10);
    EXPECT_GE(cumulative, prev);
    prev = cumulative;
    pos = brace;
  }
  EXPECT_EQ(prev, 10u);
}

TEST(OpenMetrics, FormatParsing) {
  MetricsFormat format = MetricsFormat::kJson;
  EXPECT_TRUE(parse_metrics_format("openmetrics", format));
  EXPECT_EQ(format, MetricsFormat::kOpenMetrics);
  EXPECT_TRUE(parse_metrics_format("json", format));
  EXPECT_EQ(format, MetricsFormat::kJson);
  EXPECT_FALSE(parse_metrics_format("xml", format));
  EXPECT_NE(render_metrics(MetricsSnapshot{}, MetricsFormat::kOpenMetrics)
                .find("# EOF"),
            std::string::npos);
}

// -- trace drop accounting ---------------------------------------------------

TEST(TraceDrops, CapBumpsDroppedSpansCounter) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  clear_trace();
  set_trace_buffer_capacity(4);
  set_tracing(true);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("telemetry-test-span");
  }
  set_tracing(false);
  set_trace_buffer_capacity(0);  // restore default
  EXPECT_GE(dropped_trace_events(), 6u);
  EXPECT_GE(registry().counter("trace.dropped_spans").value(), 6u);
  clear_trace();
}

}  // namespace
}  // namespace egemm::obs
