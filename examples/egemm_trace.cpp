// egemm_trace: guided walkthrough of the observability layer (DESIGN.md
// §12). Runs one instrumented EGEMM multiply with span tracing enabled,
// prints a per-stage wall-time summary straight from the recorded spans,
// dumps the metrics registry, and writes the Chrome trace_event JSON.
//
//   build/examples/egemm_trace [--n=512] [--trace=egemm_trace.json]
//
// Open the emitted file in chrome://tracing or https://ui.perfetto.dev to
// see split -> pack -> mma -> combine laid out per worker-thread track.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "gemm/egemm.hpp"
#include "obs/export.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace egemm;
  const util::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.value_or("n", std::int64_t{512}));
  const std::string trace_path =
      args.value_or("trace", std::string("egemm_trace.json"));
  if (!obs::kEnabled) {
    std::fprintf(stderr,
                 "egemm_trace: built with EGEMM_OBSERVABILITY=OFF; "
                 "reconfigure with -DEGEMM_OBSERVABILITY=ON\n");
    return 2;
  }

  obs::set_thread_name("main");

  const gemm::Matrix a = gemm::random_matrix(n, n, -1.0f, 1.0f, /*seed=*/1);
  const gemm::Matrix b = gemm::random_matrix(n, n, -1.0f, 1.0f, /*seed=*/2);

  obs::set_tracing(true);
  const gemm::Matrix d = gemm::egemm_multiply(a, b);
  obs::set_tracing(false);
  std::printf("EGEMM %zu^3, d(0,0) = %g\n\n", n,
              static_cast<double>(d.at(0, 0)));

  // Per-stage roll-up straight from the recorded spans: the same events the
  // Chrome trace carries, aggregated by name across all thread tracks.
  struct StageTotal {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, StageTotal> stages;
  std::uint64_t tracks = 0;
  for (const auto& [tid, name] : obs::trace_thread_names()) {
    static_cast<void>(tid);
    static_cast<void>(name);
    ++tracks;
  }
  for (const obs::TraceEvent& event : obs::collect_trace()) {
    StageTotal& stage = stages[event.name];
    ++stage.count;
    stage.total_ns += event.dur_ns;
  }
  util::Table table("Span roll-up (" + std::to_string(tracks) +
                    " thread tracks)");
  table.set_header({"span", "count", "total ms"});
  for (const auto& [name, stage] : stages) {
    table.add_row({name, std::to_string(stage.count),
                   util::fmt_fixed(static_cast<double>(stage.total_ns) / 1e6,
                                   3)});
  }
  if (const std::uint64_t dropped = obs::dropped_trace_events()) {
    table.add_footnote("dropped events (buffer cap): " +
                       std::to_string(dropped));
  }
  table.print(std::cout);

  std::printf("\nmetrics registry:\n");
  obs::dump_metrics(std::cout);

  if (!obs::write_chrome_trace(trace_path)) {
    std::fprintf(stderr, "egemm_trace: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf(
      "\nwrote Chrome trace to %s -- open chrome://tracing or "
      "https://ui.perfetto.dev and drop the file in.\n",
      trace_path.c_str());
  return 0;
}
