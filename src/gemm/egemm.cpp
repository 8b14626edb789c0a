#include "gemm/egemm.hpp"

#include <algorithm>
#ifndef NDEBUG
#include <mutex>
#include <set>
#include <string>
#endif

#include "gemm/plan.hpp"
#include "sass/build.hpp"
#include "tcsim/instruction.hpp"
#include "tcsim/occupancy.hpp"
#include "tcsim/register_alloc.hpp"
#include "util/assert.hpp"

// The functional path lives in gemm/plan.cpp since the plan/context
// refactor (DESIGN.md §13): egemm_multiply here is a thin wrapper that
// plans against default_context() and executes into a fresh D, preserving
// the original one-shot signature bit-for-bit. This file keeps the timed
// path (SASS stream -> SM pipeline -> occupancy composition).

namespace egemm::gemm {

namespace {

#ifndef NDEBUG
/// Debug self-check: the SASS kernel this configuration implies must lint
/// clean of hazard/liveness errors (EG1xx/EG2xx) before we trust its
/// timing. Checked once per distinct configuration; resource findings
/// (EG4xx) are not asserted on -- an infeasible tiling is a legitimate
/// query here, answered through timing.feasible.
void debug_lint_kernel(const TileConfig& tile, const EgemmOptions& opts) {
  const sass::WarpShape shape =
      sass::warp_shape(tile, opts.emulation_instructions);
  // Codegen needs at least one LDG per warp and a split-able LDS group.
  if (shape.ldg_per_iter < 1 || shape.lds_per_step < 2 ||
      shape.tile_positions < 1) {
    return;
  }
  static std::mutex mutex;
  static std::set<std::string> checked;
  const std::string key = tile.describe() +
                          (opts.latency_hiding ? "+sched" : "+naive") + ":" +
                          std::to_string(opts.emulation_instructions);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!checked.insert(key).second) return;
  }
  sass::BuildOptions bopts;
  bopts.tile = tile;
  bopts.k_iterations = 4;  // loop analysis does not depend on the trip count
  bopts.emulation_instructions = opts.emulation_instructions;
  bopts.latency_hiding = opts.latency_hiding;
  const sass::BuiltKernel built = sass::build_egemm_kernel(bopts);
  EGEMM_ENSURES(!sass::has_blocking_errors(built.diagnostics));
}
#endif

}  // namespace

Matrix egemm_multiply(const Matrix& a, const Matrix& b, const Matrix* c,
                      const EgemmOptions& opts) {
  EGEMM_EXPECTS(opts.emulation_instructions == 4);
  EGEMM_EXPECTS(a.cols() == b.rows());
  EGEMM_EXPECTS(c == nullptr ||
                (c->rows() == a.rows() && c->cols() == b.cols()));

  // Only the split changes the bits; the tile, latency hiding and FRAG
  // caching decide modeled GPU time (egemm_timing), so they share a plan.
  GemmContext& ctx = default_context();
  const auto plan = ctx.plan_scheme(
      opts.split == core::SplitMethod::kTruncateSplit
          ? core::SchemeId::kTruncate2
          : core::SchemeId::kRound2,
      a.rows(), b.cols(), a.cols());
  Matrix d;
  plan->execute(ctx, a, b, c, d);
  return d;
}

KernelTiming egemm_timing(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                          const tcsim::GpuSpec& spec,
                          const EgemmOptions& opts) {
  EGEMM_EXPECTS(m > 0 && n > 0 && k > 0);
  EGEMM_EXPECTS(opts.tile.valid());
  const TileConfig& tile = opts.tile;
#ifndef NDEBUG
  debug_lint_kernel(tile, opts);
#endif

  KernelTiming timing;

  // Register allocation (§5.2) decides the per-thread footprint; a plan
  // that spills slows the block down (spilled values bounce off local
  // memory), and one that does not fit at all is infeasible.
  const tcsim::KernelRegisterPlan plan = tcsim::egemm_register_plan(
      tile.bm, tile.bn, tile.bk, tile.wm, tile.wn, tile.wk,
      tile.threads_per_block());
  const tcsim::AllocationResult regs =
      tcsim::allocate_registers(plan, spec.max_registers_per_thread);
  timing.registers_per_thread = std::min(
      regs.per_thread, spec.max_registers_per_thread);
  timing.register_spill = regs.spills;

  const tcsim::BlockResources resources{
      tile.shared_memory_bytes(), timing.registers_per_thread,
      tile.threads_per_block()};
  const tcsim::Occupancy occ = tcsim::compute_occupancy(spec, resources);
  if (occ.blocks_per_sm == 0) {
    timing.feasible = false;
    return timing;
  }
  timing.blocks_per_sm = occ.blocks_per_sm;

  // Per-block instruction stream -> cycles.
  tcsim::EgemmStreamOptions sopts;
  sopts.latency_hiding = opts.latency_hiding;
  sopts.frag_caching = opts.frag_caching;
  sopts.emulation_instructions =
      static_cast<std::uint32_t>(opts.emulation_instructions);
  const tcsim::IterationShape shape = tcsim::egemm_iteration_shape(
      tile.bm, tile.bn, tile.bk, tile.wm, tile.wn, tile.wk, sopts);
  const auto iterations =
      static_cast<std::uint32_t>(tile.k_iterations(k));
  const auto epilogue_stg = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(tile.bm) * static_cast<std::uint64_t>(tile.bn) *
      4 / 512);
  const tcsim::SimProgram program =
      tcsim::build_egemm_block_program(shape, iterations, sopts, epilogue_stg);
  timing.block_stats = tcsim::simulate_block(program, spec);
  timing.block_cycles = timing.block_stats.cycles;
  if (occ.blocks_per_sm > 1) {
    // Co-resident blocks share the SM's issue ports: each extra block
    // stretches this block's busiest-port time by its utilization share
    // (idle latency slots still interleave for free).
    double max_util = 0.0;
    for (const tcsim::Port port :
         {tcsim::Port::kTensor, tcsim::Port::kMio, tcsim::Port::kGlobal,
          tcsim::Port::kCuda}) {
      max_util = std::max(max_util,
                          timing.block_stats.port_utilization(port));
    }
    timing.block_cycles *=
        1.0 + static_cast<double>(occ.blocks_per_sm - 1) * max_util;
  }
  if (regs.spills) {
    // Each spilled register adds local-memory round trips to the main
    // loop; 2% per register is the calibrated penalty.
    timing.block_cycles *=
        1.0 + 0.02 * static_cast<double>(regs.spilled_registers);
  }

  timing.blocks = tile.grid_blocks(m, n);
  timing.waves =
      tcsim::wave_count(timing.blocks, spec, occ.blocks_per_sm);
  const double main_cycles = tcsim::kernel_cycles(
      timing.blocks, timing.block_cycles, spec, occ.blocks_per_sm);
  const double main_seconds = spec.cycles_to_seconds(main_cycles);

  // The O(N^2) split pass on CUDA cores: reads A and B in binary32 and
  // writes the lo+hi binary16 planes -- 8(mk + kn) bytes at DRAM speed --
  // plus its own kernel launch.
  const double split_bytes =
      8.0 * (static_cast<double>(m) * static_cast<double>(k) +
             static_cast<double>(k) * static_cast<double>(n));
  timing.split_pass_seconds =
      split_bytes / (spec.dram_bandwidth_gbps * 1e9) +
      spec.kernel_launch_us * 1e-6;

  timing.seconds = main_seconds + timing.split_pass_seconds +
                   spec.kernel_launch_us * 1e-6;
  timing.tflops = gemm_tflops(m, n, k, timing.seconds);
  return timing;
}

double gemm_tflops(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                   double seconds) noexcept {
  if (seconds <= 0.0) return 0.0;
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) / seconds / 1e12;
}

}  // namespace egemm::gemm
