#pragma once
// Batched binary16 round trip for the functional hot path.
//
// The scalar `fp::Half` constructor routes every conversion through
// binary64 (`f64_to_f16_bits`), which is convenient for the bit-accuracy
// proofs but costs a widening, a 64-bit shift cascade and a function call
// per element. The O(N^2) data-split pass (§3.2) rounds every matrix
// element through binary16 once per plane, so the GEMM front-end wants a
// flat loop over whole spans.
//
// The kernel here is BIT-IDENTICAL to its scalar counterpart -- the
// 32-bit integer rounding core (simd/half_convert_core.hpp) mirrors
// `f64_to_f16_bits` exactly (the binary32 -> binary64 widening is exact,
// so the rounding decisions are the same; verified exhaustively over all
// 2^32 inputs in both modes). tests/test_half.cpp pins the equivalence on
// boundary and random inputs.
//
// The front dispatches through the runtime SIMD layer (DESIGN.md §15):
// the scalar tier runs the integer core, the AVX2 and AVX-512 tiers the
// hardware conversion pair plus a NaN blend, selected once per process
// from CPUID (overridable via EGEMM_FORCE_ISA).
// tests/test_simd_dispatch.cpp pins every variant against the scalar core
// on all 2^32 inputs, so the dispatch never changes a result bit.

#include <span>

#include "fp/rounding.hpp"

namespace egemm::fp {

/// Rounds each binary32 value to its nearest (or toward-zero) binary16
/// neighbour and widens back to binary32 in one pass -- the data-split
/// building block, with no uint16 staging buffer.
/// out[i] == f16_bits_to_f32(f32_to_f16_bits(in[i], mode)).
void f32_round_through_f16_span(std::span<const float> in,
                                std::span<float> out, Rounding mode);

}  // namespace egemm::fp
