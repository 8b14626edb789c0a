// google-benchmark microbenchmarks for the CPU-side primitives: binary16
// conversion, data splits, the functional Tensor Core tile, the emulated
// tile algorithms, the pipeline simulator and the end-to-end GEMM (one-shot,
// planned, cold-plan and batched). These measure the *substrate's* host
// performance (useful when extending the library), not the simulated GPU
// numbers of the fig/table benches.
//
// Extra flags on top of google-benchmark's own:
//   --smoke        drop the 1024^3 GEMM sizes and shorten the min time (CI)
//   --json=PATH    where to write the machine-readable results
//                  (default BENCH_micro.json in the working directory)
//   --compare=PATH diff this run against an older BENCH_micro.json and
//                  exit nonzero when a shared row slows down past the
//                  threshold (--compare_threshold=0.3 -> +30%, the default)
//   --trace=PATH   record pipeline spans and write a Chrome trace_event
//                  JSON (chrome://tracing, ui.perfetto.dev)
//   --metrics      dump the observability registry to stdout at exit
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/emulation.hpp"
#include "core/split.hpp"
#include "gemm/baselines.hpp"
#include "gemm/egemm.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/plan.hpp"
#include "simd/dispatch.hpp"
#include "simd/isa.hpp"
#include "tcsim/instruction.hpp"
#include "tcsim/pipeline.hpp"
#include "tcsim/tensor_core.hpp"
#include "util/rng.hpp"

namespace {

using namespace egemm;

void BM_HalfFromFloat(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  std::vector<float> values(4096);
  for (auto& v : values) v = rng.uniform(-1.0f, 1.0f);
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (const float v : values) {
      acc += fp::f32_to_f16_bits(v, fp::Rounding::kNearestEven);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_HalfFromFloat);

void BM_HalfToFloat(benchmark::State& state) {
  std::vector<std::uint16_t> bits(4096);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<std::uint16_t>(i * 13);
  }
  for (auto _ : state) {
    float acc = 0.0f;
    for (const std::uint16_t b : bits) acc += fp::f16_bits_to_f32(b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(BM_HalfToFloat);

void BM_SplitSpan(benchmark::State& state) {
  const auto method = static_cast<core::SplitMethod>(state.range(0));
  util::Xoshiro256 rng(2);
  std::vector<float> input(8192);
  for (auto& v : input) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> hi(input.size()), lo(input.size());
  for (auto _ : state) {
    core::split_span_f32(input, hi, lo, method);
    benchmark::DoNotOptimize(hi.data());
    benchmark::DoNotOptimize(lo.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_SplitSpan)
    ->Arg(static_cast<int>(core::SplitMethod::kRoundSplit))
    ->Arg(static_cast<int>(core::SplitMethod::kTruncateSplit));

void BM_TensorCoreTile(benchmark::State& state) {
  util::Xoshiro256 rng(3);
  float a[16 * 16], b[16 * 16], d[16 * 16];
  for (auto& v : a) v = fp::Half(rng.uniform(-1.0f, 1.0f)).to_float();
  for (auto& v : b) v = fp::Half(rng.uniform(-1.0f, 1.0f)).to_float();
  for (auto& v : d) v = 0.0f;
  for (auto _ : state) {
    tcsim::mma_tile_f32(d, 16, a, 16, b, 16, 16, 16, 16);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * 2 * 16 * 16 * 16);
}
BENCHMARK(BM_TensorCoreTile);

void BM_EmulatedTile(benchmark::State& state) {
  util::Xoshiro256 rng(4);
  core::FragmentF32 a;
  core::FragmentF32B b;
  tcsim::FragmentAcc c, d;
  for (auto& v : a.flat()) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b.flat()) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : c.flat()) v = rng.uniform(-1.0f, 1.0f);
  const int variant = static_cast<int>(state.range(0));
  for (auto _ : state) {
    switch (variant) {
      case 0:
        core::scheme_mma_tile(core::SchemeId::kRound2, d, a, b, c);
        break;
      case 1:
        core::scheme_mma_tile(core::SchemeId::kMarkidis, d, a, b, c);
        break;
      default:
        core::dekker_mma_tile(d, a, b, c);
        break;
    }
    benchmark::DoNotOptimize(d);
  }
  state.SetLabel(variant == 0   ? "egemm"
                 : variant == 1 ? "markidis"
                                : "dekker");
  // Effective-GEMM FLOPs (one 16x16x16 tile per iteration), the same
  // convention as the end-to-end GEMM benches: without the rate counter
  // these rows land in BENCH_micro.json with items_per_second/gflops = 0.
  state.SetItemsProcessed(state.iterations() * 2 * 16 * 16 * 16);
}
BENCHMARK(BM_EmulatedTile)->Arg(0)->Arg(1)->Arg(2);

/// One packed MMA block kernel call per iteration, per ISA tier (the table
/// is invoked directly, bypassing dispatch, so every compiled-in +
/// machine-executable variant gets a row regardless of what auto-selection
/// picks). k = 256 approximates the steady-state slab depth of a large
/// GEMM; items are effective FLOPs, so gflops in BENCH_micro.json is the
/// raw microkernel throughput.
void BM_MmaBlockPacked(benchmark::State& state,
                       const egemm::simd::KernelTable* table) {
  constexpr int kK = 256;
  constexpr int kTile = egemm::simd::kMmaTile;
  util::Xoshiro256 rng(9);
  std::vector<float> a(static_cast<std::size_t>(kTile) * kK);
  std::vector<float> b(static_cast<std::size_t>(kK) * kTile);
  std::vector<float> acc(static_cast<std::size_t>(kTile) * kTile, 0.0f);
  for (auto& v : a) v = fp::Half(rng.uniform(-1.0f, 1.0f)).to_float();
  for (auto& v : b) v = fp::Half(rng.uniform(-1.0f, 1.0f)).to_float();
  for (auto _ : state) {
    table->mma_block_packed(acc.data(), a.data(), kK, b.data(), kK);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kTile * kTile * kK);
}

/// The kernel the engine runs, per ISA tier: one round-2term tile recipe
/// per iteration (4 plane combos over 2 A and 2 B planes, fused, slab 16)
/// on k-major 16 x 1024 A blocks and their 1024 x 16 B blocks -- 256 KiB
/// of operands, so unlike BM_MmaBlockPacked's L1-resident block the
/// kernel streams from L2. Items are executed FLOPs (all 4 products), the
/// same unit as BM_MmaBlockPacked's row.
void BM_MmaTileRecipe(benchmark::State& state,
                      const egemm::simd::KernelTable* table) {
  constexpr int kK = 1024;
  constexpr int kTile = egemm::simd::kMmaTile;
  constexpr int kCombos = 4;
  util::Xoshiro256 rng(11);
  const auto block = [&rng] {
    std::vector<float> v(static_cast<std::size_t>(kTile) * kK);
    for (auto& x : v) x = fp::Half(rng.uniform(-1.0f, 1.0f)).to_float();
    return v;
  };
  const std::vector<float> a_planes[2] = {block(), block()};
  const std::vector<float> b_planes[2] = {block(), block()};
  // Alg. 1's combo order over (A plane, B plane).
  const float* a_blocks[kCombos] = {a_planes[0].data(), a_planes[0].data(),
                                    a_planes[1].data(), a_planes[1].data()};
  const float* b_blocks[kCombos] = {b_planes[0].data(), b_planes[1].data(),
                                    b_planes[0].data(), b_planes[1].data()};
  std::vector<float> acc(static_cast<std::size_t>(kTile) * kTile, 0.0f);
  for (auto _ : state) {
    table->mma_tile_recipe(acc.data(), a_blocks, b_blocks, kCombos, kK,
                           /*k_slab=*/16, /*fused=*/true);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kCombos * kTile * kTile *
                          kK);
}

/// Batched f32 -> f16 -> f32 round-trip (the split pass's inner loop), per
/// ISA tier. Items are converted elements; multiply by 8 bytes (one float
/// in, one out) for memory throughput.
void BM_HalfBatchRoundTrip(benchmark::State& state,
                           const egemm::simd::KernelTable* table) {
  util::Xoshiro256 rng(10);
  std::vector<float> in(1 << 16);
  std::vector<float> out(in.size());
  for (auto& v : in) v = rng.uniform(-1.0f, 1.0f);
  for (auto _ : state) {
    table->f32_round_through_f16(in.data(), out.data(), in.size(), true);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size() * 8));
}

void BM_PipelineSimulate(benchmark::State& state) {
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  const tcsim::EgemmStreamOptions opts{};
  const tcsim::IterationShape shape =
      tcsim::egemm_iteration_shape(128, 128, 32, 64, 32, 8, opts);
  const tcsim::SimProgram prog = tcsim::build_egemm_block_program(
      shape, static_cast<std::uint32_t>(state.range(0)), opts, 128);
  for (auto _ : state) {
    const tcsim::SimStats stats = tcsim::simulate_block(prog, spec);
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(prog.dynamic_size()));
}
BENCHMARK(BM_PipelineSimulate)->Arg(32)->Arg(256);

void BM_EgemmMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const gemm::Matrix a = gemm::random_matrix(n, n, -1, 1, 5);
  const gemm::Matrix b = gemm::random_matrix(n, n, -1, 1, 6);
  for (auto _ : state) {
    const gemm::Matrix d = gemm::egemm_multiply(a, b);
    benchmark::DoNotOptimize(d.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(n * n * n));
}

/// The plan-once, execute-many path (gemm/plan.hpp): the plan and the
/// output matrix live outside the loop, so the steady state measures pure
/// execution -- no plan-cache lookup, no D allocation, recycled split/pack
/// workspaces. Compare against BM_EgemmMultiply at the same size for the
/// per-call overhead of the one-shot API.
void BM_EgemmPlanExecute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const gemm::Matrix a = gemm::random_matrix(n, n, -1, 1, 5);
  const gemm::Matrix b = gemm::random_matrix(n, n, -1, 1, 6);
  gemm::GemmContext ctx;
  const auto plan = ctx.plan(gemm::Backend::kEgemmTC, n, n, n);
  gemm::Matrix d;
  for (auto _ : state) {
    plan->execute(ctx, a, b, nullptr, d);
    benchmark::DoNotOptimize(d.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(n * n * n));
}

/// The anti-pattern the plan layer exists to avoid: a fresh context per
/// call re-resolves the plan and re-allocates every split/pack workspace.
/// BM_EgemmPlanExecute at the same size is the steady state; the ratio is
/// the per-call cost of not planning.
void BM_EgemmColdPlan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const gemm::Matrix a = gemm::random_matrix(n, n, -1, 1, 5);
  const gemm::Matrix b = gemm::random_matrix(n, n, -1, 1, 6);
  for (auto _ : state) {
    gemm::GemmContext fresh;
    const gemm::Matrix d =
        gemm::gemm_ex(fresh, gemm::Backend::kEgemmTC, a, b, nullptr, {});
    benchmark::DoNotOptimize(d.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(n * n * n));
}

/// N identical small GEMMs as one gemm_grouped call: ONE pool pass of
/// regions (DESIGN.md §18), every
/// item on the one cached plan of their shape. Each iteration writes fresh
/// outputs, as the loop below does. BM_GemmBatchedLoopSingles at the same
/// Args runs the identical work as a loop of one-shot gemm_ex calls -- the
/// ratio of the two gflops columns in BENCH_micro.json is what the grouped
/// scheduler buys (the acceptance bar is >= 2x aggregate throughput at
/// 32 x 128^3).
void BM_GemmBatched(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<gemm::Matrix> a, b;
  a.reserve(batch);
  b.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    a.push_back(gemm::random_matrix(n, n, -1, 1, 11 + 2 * i));
    b.push_back(gemm::random_matrix(n, n, -1, 1, 12 + 2 * i));
  }
  std::vector<gemm::GroupedGemmItem> items(batch);
  gemm::GemmContext ctx;
  for (auto _ : state) {
    std::vector<gemm::Matrix> d(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      items[i] = gemm::GroupedGemmItem{&a[i], &b[i], nullptr, &d[i], {}};
    }
    gemm::gemm_grouped(ctx, gemm::Backend::kEgemmTC, items);
    benchmark::DoNotOptimize(d.front().data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(batch * n * n * n));
}

/// The same batch as a loop of single gemm_ex calls: every item pays its
/// own pool fork/join (plus the one-shot bookkeeping), which is exactly
/// the overhead the grouped call amortizes.
void BM_GemmBatchedLoopSingles(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<gemm::Matrix> a, b;
  a.reserve(batch);
  b.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    a.push_back(gemm::random_matrix(n, n, -1, 1, 11 + 2 * i));
    b.push_back(gemm::random_matrix(n, n, -1, 1, 12 + 2 * i));
  }
  gemm::GemmContext ctx;
  for (auto _ : state) {
    gemm::Matrix d;
    for (std::size_t i = 0; i < batch; ++i) {
      d = gemm::gemm_ex(ctx, gemm::Backend::kEgemmTC, a[i], b[i], nullptr, {});
    }
    benchmark::DoNotOptimize(d.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(batch * n * n * n));
}

/// Heterogeneous shapes through gemm_grouped: the stream mixes four shape
/// classes (so four plans share one dispatch), the situation where
/// per-item scheduling wastes the most -- small items serialize behind
/// large ones.
void BM_GemmGrouped(benchmark::State& state) {
  struct Shape {
    std::size_t m, n, k;
  };
  constexpr std::array<Shape, 4> kShapes = {
      {{64, 64, 64}, {128, 64, 96}, {96, 128, 64}, {128, 128, 128}}};
  constexpr std::size_t kBatch = 24;
  std::vector<gemm::Matrix> a(kBatch), b(kBatch), d(kBatch);
  std::vector<gemm::GroupedGemmItem> items(kBatch);
  std::int64_t flops = 0;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const Shape& s = kShapes[i % kShapes.size()];
    a[i] = gemm::random_matrix(s.m, s.k, -1, 1, 31 + 2 * i);
    b[i] = gemm::random_matrix(s.k, s.n, -1, 1, 32 + 2 * i);
    items[i] = gemm::GroupedGemmItem{&a[i], &b[i], nullptr, &d[i], {}};
    flops += static_cast<std::int64_t>(2 * s.m * s.n * s.k);
  }
  gemm::GemmContext ctx;
  for (auto _ : state) {
    gemm::gemm_grouped(ctx, gemm::Backend::kEgemmTC, items);
    benchmark::DoNotOptimize(d.front().data().data());
  }
  state.SetItemsProcessed(state.iterations() * flops);
}

void BM_SgemmFp32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const gemm::Matrix a = gemm::random_matrix(n, n, -1, 1, 7);
  const gemm::Matrix b = gemm::random_matrix(n, n, -1, 1, 8);
  for (auto _ : state) {
    const gemm::Matrix d = gemm::sgemm_fp32(a, b);
    benchmark::DoNotOptimize(d.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_SgemmFp32)->Arg(128)->Arg(256);

/// Console reporter that also captures every per-iteration run so main()
/// can persist the results as JSON after the sweep.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      egemm::bench::BenchRecord rec;
      rec.name = run.benchmark_name();
      if (run.iterations > 0) {
        rec.ns_per_iter = run.real_accumulated_time /
                          static_cast<double>(run.iterations) * 1e9;
      }
      // google-benchmark finalizes rate counters against CPU time, which
      // under-counts work done on pool worker threads; rescale to a
      // wall-clock rate so the GEMM GFLOP/s numbers are meaningful.
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end() && run.real_accumulated_time > 0.0) {
        rec.items_per_second = it->second.value * run.cpu_accumulated_time /
                               run.real_accumulated_time;
      }
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<egemm::bench::BenchRecord>& records() const {
    return records_;
  }

 private:
  std::vector<egemm::bench::BenchRecord> records_;
};

}  // namespace

#ifndef EGEMM_GIT_SHA
#define EGEMM_GIT_SHA "unknown"
#endif

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_micro.json";
  std::string compare_path;
  double compare_threshold = 0.3;
  std::string trace_path;
  bool dump_metrics = false;
  std::string metrics_format;
  std::string metrics_out;
  bool min_time_given = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--compare=", 10) == 0) {
      compare_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--compare_threshold=", 20) == 0) {
      compare_threshold = std::strtod(argv[i] + 20, nullptr);
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else if (std::strncmp(argv[i], "--metrics-format=", 17) == 0) {
      metrics_format = argv[i] + 17;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else {
      if (std::strncmp(argv[i], "--benchmark_min_time", 20) == 0) {
        min_time_given = true;
      }
      passthrough.push_back(argv[i]);
    }
  }
  // The smoke sweep is a CI regression canary: tiny min time, no 1024^3.
  std::string min_time_arg = "--benchmark_min_time=0.05";
  if (smoke && !min_time_given) passthrough.push_back(min_time_arg.data());

  // The end-to-end GEMM sweep runs the one-shot, planned and cold-plan
  // paths at each size. The 32^3 size is where the one-shot API's per-call
  // overhead (plan lookup, output allocation) is the largest fraction of
  // the work, making the plan-execute comparison meaningful. The full
  // sweep adds the 1024^3 headline size (README's perf table).
  // One row per compiled-in, machine-executable ISA tier for the two
  // dispatched hot loops (DESIGN.md §15). The scalar row is the seed
  // baseline; the spread to the widest row is what runtime dispatch buys.
  for (int level = 0; level < egemm::simd::kIsaLevelCount; ++level) {
    const auto isa = static_cast<egemm::simd::IsaLevel>(level);
    if (!egemm::simd::isa_available(isa)) continue;
    const egemm::simd::KernelTable* table = egemm::simd::kernels_for(isa);
    benchmark::RegisterBenchmark(
        (std::string("BM_MmaBlockPacked/") + table->name).c_str(),
        [table](benchmark::State& state) { BM_MmaBlockPacked(state, table); });
    benchmark::RegisterBenchmark(
        (std::string("BM_MmaTileRecipe/") + table->name).c_str(),
        [table](benchmark::State& state) { BM_MmaTileRecipe(state, table); });
    benchmark::RegisterBenchmark(
        (std::string("BM_HalfBatchRoundTrip/") + table->name).c_str(),
        [table](benchmark::State& state) {
          BM_HalfBatchRoundTrip(state, table);
        });
  }

  std::vector<std::int64_t> sizes = {32, 64, 128, 256};
  if (!smoke) sizes.push_back(1024);
  for (const std::int64_t n : sizes) {
    benchmark::RegisterBenchmark("BM_EgemmMultiply", BM_EgemmMultiply)
        ->Arg(n);
    benchmark::RegisterBenchmark("BM_EgemmPlanExecute", BM_EgemmPlanExecute)
        ->Arg(n);
    benchmark::RegisterBenchmark("BM_EgemmColdPlan", BM_EgemmColdPlan)
        ->Arg(n);
  }

  // The batched/grouped path (DESIGN.md §18), smoke set included so CI's
  // --compare gate covers the rows. The pair at {32, 128} is the README's
  // batched-throughput headline: same work, one grouped call vs a loop of
  // singles.
  // {64, 32} is the amortization extreme: per-call fixed costs (plan
  // lookup, output allocation, telemetry deposit, workspace lease) are the
  // largest fraction of a 32^3 call, so it shows the grouped call's
  // floor win even on one core; {32, 128} adds the scheduling win, which
  // scales with the worker count.
  benchmark::RegisterBenchmark("BM_GemmBatched", BM_GemmBatched)
      ->Args({32, 128})
      ->Args({64, 32});
  benchmark::RegisterBenchmark("BM_GemmBatchedLoopSingles",
                               BM_GemmBatchedLoopSingles)
      ->Args({32, 128})
      ->Args({64, 32});
  benchmark::RegisterBenchmark("BM_GemmGrouped", BM_GemmGrouped);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  egemm::bench::ObsSession obs_session(trace_path, dump_metrics);
  if (!metrics_format.empty() &&
      !obs_session.set_metrics_export(metrics_format, metrics_out)) {
    std::fprintf(stderr,
                 "error: unknown --metrics-format '%s' "
                 "(expected json or openmetrics)\n",
                 metrics_format.c_str());
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const bool obs_ok = obs_session.finish();
  if (!egemm::bench::write_bench_json(json_path, EGEMM_GIT_SHA,
                                      reporter.records())) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  if (!obs_ok) return 1;
  std::fprintf(stderr, "wrote %s (%zu records, sha %s)\n", json_path.c_str(),
               reporter.records().size(), EGEMM_GIT_SHA);

  if (!compare_path.empty()) {
    std::ifstream old_file(compare_path);
    if (!old_file) {
      std::fprintf(stderr, "error: cannot read --compare file %s\n",
                   compare_path.c_str());
      return 1;
    }
    std::ostringstream old_text;
    old_text << old_file.rdbuf();
    const std::vector<egemm::bench::BenchRecord> old_records =
        egemm::bench::parse_bench_json_records(old_text.str());
    if (old_records.empty()) {
      std::fprintf(stderr, "error: no benchmark rows in %s\n",
                   compare_path.c_str());
      return 1;
    }
    const egemm::bench::BenchCompareReport report =
        egemm::bench::compare_bench_records(old_records, reporter.records(),
                                            compare_threshold);
    egemm::bench::print_bench_compare(report, compare_threshold, std::cout);
    if (report.regressions > 0) return 2;
  }
  return 0;
}
