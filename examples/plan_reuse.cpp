// Plan reuse: the plan-once, execute-many API (gemm/plan.hpp) next to the
// one-shot entry point.
//
//   build/examples/plan_reuse [--n=256] [--calls=50] [--metrics]
//
// A GemmPlan freezes everything shape-dependent -- split, combo
// schedule, workspace sizing -- so repeated same-shape calls skip
// plan resolution, reuse the split/pack workspaces through the context
// pool, and write into a caller-owned output matrix with no per-call heap
// allocation. This program times three variants of the same GEMM sequence:
//
//   cold plan    a fresh GemmContext per call (plan rebuilt every time),
//   one-shot     egemm_multiply against the shared default context (cached
//                plan, but a freshly allocated D per call),
//   planned      plan once + execute into a reused D (the steady state).
//
// --metrics dumps the observability registry, where gemm.plan.hit /
// gemm.plan.miss show the cache doing its work.
#include <cstdio>
#include <iostream>

#include "gemm/gemm_api.hpp"
#include "gemm/plan.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"

namespace {

double now_seconds() {
  return static_cast<double>(egemm::obs::monotonic_ns()) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace egemm;
  const util::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.value_or("n", std::int64_t{256}));
  const auto calls =
      static_cast<int>(args.value_or("calls", std::int64_t{50}));
  obs::set_thread_name("main");

  const gemm::Matrix a = gemm::random_matrix(n, n, -1.0f, 1.0f, /*seed=*/1);
  const gemm::Matrix b = gemm::random_matrix(n, n, -1.0f, 1.0f, /*seed=*/2);

  // Cold plan: a fresh context per call pays plan construction (recipe
  // normalization, workspace sizing) and cold workspaces every time.
  double cold_seconds = 0.0;
  gemm::Matrix cold_result;
  {
    const double start = now_seconds();
    for (int i = 0; i < calls; ++i) {
      gemm::GemmContext fresh;
      cold_result =
          gemm::gemm_ex(fresh, gemm::Backend::kEgemmTC, a, b, nullptr, {});
    }
    cold_seconds = now_seconds() - start;
  }

  // One-shot: the public entry point; the default context caches the plan
  // but every call still allocates its own result matrix.
  double oneshot_seconds = 0.0;
  gemm::Matrix oneshot_result;
  {
    (void)gemm::egemm_multiply(a, b);  // warm the shared cache
    const double start = now_seconds();
    for (int i = 0; i < calls; ++i) {
      oneshot_result = gemm::egemm_multiply(a, b);
    }
    oneshot_seconds = now_seconds() - start;
  }

  // Planned: plan once, execute many into a caller-owned D. After the
  // first call the workspaces are warm and the loop never touches the
  // heap (asserted in debug builds).
  gemm::GemmContext ctx;
  const auto plan = ctx.plan(gemm::Backend::kEgemmTC, n, n, n);
  gemm::Matrix d;
  plan->execute(ctx, a, b, nullptr, d);  // warm-up call
  double planned_seconds = 0.0;
  {
    const double start = now_seconds();
    for (int i = 0; i < calls; ++i) {
      plan->execute(ctx, a, b, nullptr, d);
    }
    planned_seconds = now_seconds() - start;
  }

  // The three variants compute the same numbers (bit-identical paths).
  std::printf("plan-once vs one-shot, %zux%zux%zu, %d calls\n", n, n, n,
              calls);
  std::printf("  %-22s %10.3f ms/call\n", "cold plan (fresh ctx)",
              cold_seconds / calls * 1e3);
  std::printf("  %-22s %10.3f ms/call\n", "one-shot (cached plan)",
              oneshot_seconds / calls * 1e3);
  std::printf("  %-22s %10.3f ms/call\n", "planned (reused D)",
              planned_seconds / calls * 1e3);
  if (planned_seconds > 0.0) {
    std::printf("  planned is %.2fx vs one-shot, %.2fx vs cold plan\n",
                oneshot_seconds / planned_seconds,
                cold_seconds / planned_seconds);
  }
  std::printf("  context: %llu plan hits, %llu misses, %zu pooled "
              "workspaces\n",
              static_cast<unsigned long long>(ctx.plan_hits()),
              static_cast<unsigned long long>(ctx.plan_misses()),
              ctx.pooled_workspaces());

  const float checksum = d.size() != 0 ? d.at(0, 0) : 0.0f;
  std::printf("  d[0][0] = %.6f (same on all three paths: %s)\n",
              static_cast<double>(checksum),
              cold_result.at(0, 0) == checksum &&
                      oneshot_result.at(0, 0) == checksum
                  ? "yes"
                  : "NO");

  if (args.has_flag("metrics")) {
    std::cout << "\n-- metrics ------------------------------------------\n";
    obs::dump_metrics(std::cout);
  }
  return 0;
}
