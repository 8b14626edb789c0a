#pragma once
// Scalar reference execution of an emulated GemmPlan (DESIGN.md §10, §11).
//
// The plan layer has one engine: the packed, SIMD-dispatched tile kernel.
// This is the seed's scalar per-tile driver, kept beside it as the
// semantics oracle that tests and the differential fuzzer pin the packed
// engine against bitwise. It reads only the plan's recipe -- split method,
// plane count, ordered terms and term order -- splits A and B with the
// same core::split_planes_f32 call as the engine, initializes D from C
// (or zeros), and then runs every 16x16 output tile as a plain sequence of
// tcsim::tc_dot_f32 k-tile passes followed by a canonical-NaN store. It
// never packs and never dispatches its inner dot, so agreement with the
// packed engine pins packing, the dispatched microkernels and the
// schedule jointly. Serial and allocating: a test oracle, not a fast path.

#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"

namespace egemm::verify {

/// D = A x B (+ C) for an emulated (non-direct) plan, computed by the
/// scalar reference driver. A/B/C extents must match the planned shape.
gemm::Matrix reference_execute(const gemm::GemmPlan& plan,
                               const gemm::Matrix& a, const gemm::Matrix& b,
                               const gemm::Matrix* c = nullptr);

}  // namespace egemm::verify
