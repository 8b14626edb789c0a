#include "tcsim/gpu_spec.hpp"

#include "util/assert.hpp"

namespace egemm::tcsim {

double GpuSpec::l2_bytes_per_cycle_per_sm() const noexcept {
  return l2_bandwidth_gbps * 1e9 / (clock_ghz * 1e9) /
         static_cast<double>(sm_count);
}

double GpuSpec::tc_flops_per_cycle_per_sm() const noexcept {
  return peak_fp16_tc_tflops * 1e12 / (clock_ghz * 1e9) /
         static_cast<double>(sm_count);
}

double GpuSpec::cycles_to_seconds(double cycles) const noexcept {
  return cycles / (clock_ghz * 1e9);
}

GpuSpec tesla_t4() {
  GpuSpec spec;
  spec.name = "Tesla T4";
  spec.sm_count = 40;
  spec.tensor_cores_per_sm = 8;  // 320 total
  spec.clock_ghz = 1.59;
  spec.shared_memory_per_sm = 64 * 1024;
  spec.register_file_per_sm = 256 * 1024;
  spec.max_registers_per_thread = 256;
  spec.max_warps_per_sm = 32;
  spec.peak_fp32_tflops = 8.1;
  spec.peak_fp16_tc_tflops = 65.0;  // Table 3: 2^6 TFLOPS
  spec.dram_bandwidth_gbps = 320.0;
  spec.l2_bandwidth_gbps = 750.0;  // Table 3
  spec.l2_cache_bytes = 4 * 1024 * 1024;
  // HMMA.1688.F32 retires 2*16*8*8 = 2048 FLOPs; at theoretical peak one SM
  // retires 65e12 / 40 / 1.59e9 = ~1022 FLOP/cycle, i.e. one HMMA every 2
  // cycles. Sustained dense-GEMM issue runs at ~85% of that (operand-bank
  // conflicts and dual-issue gaps, cf. the Turing microbenchmark studies
  // [12, 13]), giving the 2.35-cycle interval used here.
  spec.timings.hmma_issue = 2.35;
  return spec;
}

GpuSpec rtx6000() {
  GpuSpec spec;
  spec.name = "Quadro RTX 6000";
  spec.sm_count = 72;
  spec.tensor_cores_per_sm = 8;  // 576 total
  spec.clock_ghz = 1.77;
  spec.shared_memory_per_sm = 64 * 1024;
  spec.register_file_per_sm = 256 * 1024;
  spec.max_registers_per_thread = 256;
  spec.max_warps_per_sm = 32;
  spec.peak_fp32_tflops = 16.3;
  spec.peak_fp16_tc_tflops = 130.5;
  spec.dram_bandwidth_gbps = 672.0;
  spec.l2_bandwidth_gbps = 1400.0;
  spec.l2_cache_bytes = 6 * 1024 * 1024;
  // 130.5e12 / 72 / 1.77e9 = ~1024 FLOP/cycle per SM -> 2 cycles/HMMA at
  // theoretical peak; same 85% sustained-issue derate as the T4.
  spec.timings.hmma_issue = 2.35;
  return spec;
}

GpuSpec spec_by_name(const std::string& name) {
  if (name == "t4" || name == "T4") return tesla_t4();
  if (name == "rtx6000" || name == "RTX6000") return rtx6000();
  EGEMM_EXPECTS(!"unknown GPU spec name");
  return tesla_t4();  // unreachable
}

}  // namespace egemm::tcsim
