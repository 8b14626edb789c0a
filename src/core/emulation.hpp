#pragma once
// Tile-level emulation algorithms (§3.2, Algorithm 1, and the §2.2
// baselines).
//
// All functions compute D = A x B + C on one Tensor-Core-shaped tile where
// A, B, C, D are binary32 and the multiplication runs on the simulated
// Tensor Core (half inputs, binary32 accumulation). They differ in the
// data split and the number of specialized-core instructions:
//
//   ladder rungs (core/scheme.hpp): each input splits into the rung's
//       planes, then one mma_sync per descriptor term, in term order.
//       round-2term is Alg. 1 -- round-split, 4 mma_sync calls,
//       accumulated low-order-first:
//       D = (((C + Alo.Blo) + Alo.Bhi) + Ahi.Blo) + Ahi.Bhi;
//       markidis [20] is truncate-split with the Alo.Blo term dropped;
//       half is the raw RN16 inputs and one mma_sync.
//   Dekker [7]: both split halves multiplied entirely in binary16 with
//       error-compensated (two-sum) accumulation -- 16 half-precision
//       instructions per emulated product term. Kept as the classical
//       high-overhead baseline the paper argues against.

#include "core/scheme.hpp"
#include "core/split.hpp"
#include "tcsim/fragment.hpp"

namespace egemm::core {

using FragmentF32 = tcsim::Fragment<float, tcsim::kTcM, tcsim::kTcK>;
using FragmentF32B = tcsim::Fragment<float, tcsim::kTcK, tcsim::kTcN>;

/// One ladder rung on one tile: A and B split into the rung's planes
/// (core::split_planes_f32), then tcsim::mma_sync once per descriptor term
/// in term order, starting from C. Bit-identical to the rung's fused GEMM
/// plan on a 16x16x16 problem.
void scheme_mma_tile(SchemeId scheme, tcsim::FragmentAcc& d,
                     const FragmentF32& a, const FragmentF32B& b,
                     const tcsim::FragmentAcc& c) noexcept;

/// Dekker-style emulation: extended precision out of half-only arithmetic
/// (input precision == output precision == binary16), with compensated
/// accumulation. Returns the per-output-element half-instruction count via
/// `instruction_count` (16 per product term, matching §1's 16x overhead).
void dekker_mma_tile(tcsim::FragmentAcc& d, const FragmentF32& a,
                     const FragmentF32B& b, const tcsim::FragmentAcc& c,
                     long* instruction_count = nullptr) noexcept;

/// Binary16 instructions per Dekker-emulated multiply-accumulate (a
/// rung's specialized-core instruction count is its term count).
constexpr int kDekkerInstructions = 16;

/// Scalar Dekker compensated product in binary16 arithmetic:
/// returns (p, e) with p + e == a*b up to binary16 representability.
/// Exposed for tests of the classical EFT in half precision.
struct HalfProduct {
  fp::Half p;
  fp::Half e;
};
HalfProduct dekker_two_prod_half(fp::Half a, fp::Half b) noexcept;

}  // namespace egemm::core
