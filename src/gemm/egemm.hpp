#pragma once
// EGEMM-TC: the paper's primary contribution as a library kernel.
//
// Two execution paths share one tiling/algorithm description:
//  * the *functional* path computes D = A x B + C with extended precision
//    on the bit-accurate Tensor Core model (real numerics, used by the
//    precision experiments and every correctness test);
//  * the *timed* path lays the same work out as a SASS-like instruction
//    stream, runs it through the SM pipeline model, and composes block
//    cycles into kernel time via the occupancy/wave model (used by every
//    performance experiment).

#include <cstdint>

#include "core/split.hpp"
#include "gemm/matrix.hpp"
#include "gemm/tiling.hpp"
#include "tcsim/gpu_spec.hpp"
#include "tcsim/pipeline.hpp"

namespace egemm::gemm {

struct EgemmOptions {
  core::SplitMethod split = core::SplitMethod::kRoundSplit;
  bool latency_hiding = true;   ///< §5.1 register-enhanced scheduling
  bool frag_caching = true;     ///< §4 intra-warp FRAG caching
  int emulation_instructions = 4;  ///< Alg. 1; 16 models a Dekker schedule
  TileConfig tile = table4_config();
};

/// Functional extended-precision GEMM: D = A x B (+ C).
/// A is m x k, B is k x n, C (optional) m x n; any sizes >= 1 are accepted
/// (edge tiles are clipped, equivalent to the kernel's zero padding).
/// Of `opts` only the split reaches the numerics (the round-2term or
/// truncate-2term rung); the tiling, latency hiding and FRAG caching shape
/// egemm_timing alone.
Matrix egemm_multiply(const Matrix& a, const Matrix& b,
                      const Matrix* c = nullptr, const EgemmOptions& opts = {});

/// How an emulated GEMM sequences its split-product passes.
enum class ComboOrder {
  kFusedPerTile,    ///< EGEMM-TC: all combos inside each k-tile (one kernel)
  kSeparatePasses,  ///< cuBLAS-TC-Emulation: one full GEMM per combo
};

/// Result of the timed path.
struct KernelTiming {
  double seconds = 0.0;        ///< end-to-end kernel(s) time
  double tflops = 0.0;         ///< Eq. 9
  bool feasible = true;        ///< false when the tiling does not fit
  double block_cycles = 0.0;
  std::uint64_t blocks = 0;
  std::uint32_t waves = 0;
  int blocks_per_sm = 0;
  int registers_per_thread = 0;
  bool register_spill = false;
  double split_pass_seconds = 0.0;
  tcsim::SimStats block_stats;
};

/// Timed path: simulated execution of EGEMM-TC for an (m, n, k) problem.
KernelTiming egemm_timing(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                          const tcsim::GpuSpec& spec,
                          const EgemmOptions& opts = {});

/// Eq. 9: TFLOPS from problem shape and seconds.
double gemm_tflops(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                   double seconds) noexcept;

}  // namespace egemm::gemm
