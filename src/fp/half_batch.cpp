#include "fp/half_batch.hpp"

#include "simd/dispatch.hpp"
#include "util/assert.hpp"

// The span front keeps fp's typed API (spans + fp::Rounding) and routes the
// flat loop through the runtime-dispatched SIMD kernel layer. The scalar
// conversion core the kernels are proven against lives in
// simd/half_convert_core.hpp; every dispatched variant is bit-identical to
// it over the full input space, so this indirection never changes a
// result bit.

namespace egemm::fp {

void f32_round_through_f16_span(std::span<const float> in,
                                std::span<float> out, Rounding mode) {
  EGEMM_EXPECTS(in.size() == out.size());
  simd::active_kernels().f32_round_through_f16(in.data(), out.data(),
                                               in.size(),
                                               mode == Rounding::kNearestEven);
}

}  // namespace egemm::fp
