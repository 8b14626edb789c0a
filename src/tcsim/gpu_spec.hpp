#pragma once
// Hardware resource budgets and instruction timings for the simulated GPUs.
//
// This is the "small set of resource budgets" the paper's analytic model
// consumes (Table 3) plus the pipeline-model calibration constants
// (DESIGN.md §6). Two concrete parts are provided, matching the paper's
// evaluation platforms: Tesla T4 and Quadro RTX 6000 (both Turing).

#include <cstddef>
#include <string>

namespace egemm::tcsim {

/// Per-instruction timing at SM-aggregate granularity (one GPU block per
/// SM, all warps folded into one in-order stream; see pipeline.hpp).
struct InstructionTimings {
  // Tensor pipe.
  double hmma_issue = 2.0;    ///< cycles/HMMA.1688 at SM aggregate issue rate
  double hmma_latency = 16.0; ///< cycles until the accumulator is readable

  // Memory-IO pipe (shared memory).
  double lds_issue = 1.0;     ///< cycles/LDS.32 warp instruction
  double lds_latency = 25.0;
  double sts_issue = 1.0;     ///< cycles/STS.128 warp instruction
  double sts_latency = 20.0;

  // Global-memory port. Issue interval is derived from the L2 budget; the
  // latency models the DRAM/L2 round trip the cold start pays.
  double ldg_latency = 400.0;

  // CUDA-core FMA pipe (used for split/round work and baseline kernels).
  double ffma_issue = 0.5;    ///< cycles/warp FFMA at SM aggregate rate
  double ffma_latency = 6.0;

  double barrier_cost = 24.0; ///< __syncthreads() pipeline drain

  /// Aggregate warp-scheduler decode rate (instructions/cycle across the
  /// SM's four scheduler partitions). Issue *order* is still program order;
  /// this bounds how fast the stream can feed the ports.
  double decode_rate = 4.0;
};

/// Resource budgets of one GPU (Table 3 generalized to both parts).
struct GpuSpec {
  std::string name;

  int sm_count = 0;
  int tensor_cores_per_sm = 0;
  double clock_ghz = 0.0;

  std::size_t shared_memory_per_sm = 0;   ///< bytes (64 KB on Turing)
  std::size_t register_file_per_sm = 0;   ///< bytes (256 KB)
  int max_registers_per_thread = 0;       ///< 256 on Turing
  int max_warps_per_sm = 0;

  double peak_fp32_tflops = 0.0;          ///< CUDA cores
  double peak_fp16_tc_tflops = 0.0;       ///< Tensor Cores, FP32 accumulate
  double dram_bandwidth_gbps = 0.0;
  double l2_bandwidth_gbps = 0.0;         ///< Table 3 "L2 Cache Speed"
  std::size_t l2_cache_bytes = 0;

  double kernel_launch_us = 4.0;          ///< per-kernel launch overhead

  InstructionTimings timings;

  /// L2 bytes per cycle available to one SM (bandwidth share).
  double l2_bytes_per_cycle_per_sm() const noexcept;
  /// Tensor-core FLOPs one SM retires per cycle at peak.
  double tc_flops_per_cycle_per_sm() const noexcept;
  /// Converts SM cycles to seconds.
  double cycles_to_seconds(double cycles) const noexcept;
};

/// Tesla T4 (Turing TU104): 40 SMs, 320 Tensor Cores, 64 KB SMEM/SM,
/// 256 KB registers/SM — the paper's Table 3 budget.
GpuSpec tesla_t4();

/// Quadro RTX 6000 (Turing TU102): 72 SMs, 576 Tensor Cores.
GpuSpec rtx6000();

/// Looks a spec up by name ("t4" or "rtx6000"); aborts on unknown names.
GpuSpec spec_by_name(const std::string& name);

}  // namespace egemm::tcsim
