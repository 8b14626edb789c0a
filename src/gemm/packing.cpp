#include "gemm/packing.hpp"

#include <cstring>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

#include "obs/metrics.hpp"

namespace egemm::gemm {

namespace {

/// Makes `packs` hold at least `planes` buffers, the first `planes` with
/// room for `floats` floats each, keeping every buffer's storage (a pack
/// shrunk to fewer planes keeps the others for the next grow). Returns
/// true when anything had to grow.
bool grow_packs(std::vector<PackBuffer>& packs, std::size_t planes,
                std::size_t floats) {
  EGEMM_EXPECTS(planes <= kMaxPackPlanes);
  bool grew = packs.capacity() < planes;
  if (packs.size() < planes) packs.resize(planes);
  for (std::size_t p = 0; p < planes; ++p) {
    if (packs[p].capacity() < floats) {
      packs[p].reserve(floats);
      grew = true;
    }
  }
  return grew;
}

}  // namespace

bool PackedPlanes::resize(std::size_t planes, std::size_t lanes,
                          std::size_t k) {
  lanes_ = lanes;
  k_ = k;
  planes_count_ = planes;
  // Contents are left for the row fills to overwrite.
  const std::size_t size = (lanes + kPackTile - 1) / kPackTile * kPackTile * k;
  const bool grew = grow_packs(planes_, planes, size);
  for (std::size_t p = 0; p < planes; ++p) planes_[p].resize(size);
  return grew;
}

bool PackedPlanes::reserve(std::size_t planes, std::size_t floats) {
  return grow_packs(planes_, planes, floats);
}

void PackedPlanes::transpose_tile(const float* src, std::size_t ld,
                                  std::size_t rows, std::size_t cols,
                                  float* dst, std::size_t dst_ld) {
  std::size_t i = 0;
#if defined(__SSE2__)
  for (; i + 4 <= rows; i += 4) {
    const float* s = src + i * ld;
    float* d = dst + i;
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      __m128 x0 = _mm_loadu_ps(s + c);
      __m128 x1 = _mm_loadu_ps(s + ld + c);
      __m128 x2 = _mm_loadu_ps(s + 2 * ld + c);
      __m128 x3 = _mm_loadu_ps(s + 3 * ld + c);
      _MM_TRANSPOSE4_PS(x0, x1, x2, x3);
      _mm_storeu_ps(d + c * dst_ld, x0);
      _mm_storeu_ps(d + (c + 1) * dst_ld, x1);
      _mm_storeu_ps(d + (c + 2) * dst_ld, x2);
      _mm_storeu_ps(d + (c + 3) * dst_ld, x3);
    }
    for (; c < cols; ++c) {
      for (std::size_t j = 0; j < 4; ++j) d[c * dst_ld + j] = s[j * ld + c];
    }
  }
#endif
  for (; i < rows; ++i) {
    for (std::size_t c = 0; c < cols; ++c) {
      dst[c * dst_ld + i] = src[i * ld + c];
    }
  }
}

void PackedPlanes::copy_segments(const float* const* strip, std::size_t r,
                                 std::size_t rows, std::size_t c0,
                                 std::size_t c1) {
  const std::size_t width = c1 - c0;
  const std::size_t full = width / kPackTile;  // whole 16-float segments
  const std::size_t tail = width - full * kPackTile;
  const std::size_t panel_stride = k_ * kPackTile;
  for (std::size_t p = 0; p < planes_count_; ++p) {
    float* const first_panel =
        planes_[p].data() + (c0 / kPackTile) * panel_stride + r * kPackTile;
    for (std::size_t i = 0; i < rows; ++i) {
      const float* src = strip[p] + i * width;
      float* dst = first_panel + i * kPackTile;
      for (std::size_t s = 0; s < full; ++s) {
        std::memcpy(dst, src, kPackTile * sizeof(float));
        src += kPackTile;
        dst += panel_stride;
      }
      if (tail > 0) {  // only the last panel is partial: zero past lanes
        std::memcpy(dst, src, tail * sizeof(float));
        std::fill(dst + tail, dst + kPackTile, 0.0f);
      }
    }
  }
}

void PackedPlanes::count_fill(std::size_t rows, std::size_t width) const {
  static_cast<void>(rows);  // unused with observability compiled out
  static_cast<void>(width);
  EGEMM_COUNTER_ADD("pack.bytes",
                    planes_count_ * rows * width * sizeof(float));
  EGEMM_COUNTER_ADD("pack.calls", 1);
}

bool PackedPlanes::assign(std::span<const Matrix> planes, PackSource source) {
  EGEMM_EXPECTS(!planes.empty());
  const bool lane_rows = source == PackSource::kLaneRows;
  const std::size_t lanes = lane_rows ? planes[0].rows() : planes[0].cols();
  const std::size_t k = lane_rows ? planes[0].cols() : planes[0].rows();
  const bool grew = resize(planes.size(), lanes, k);
  const float* rows[kMaxPackPlanes] = {};
  for (std::size_t p = 0; p < planes.size(); ++p) {
    EGEMM_EXPECTS(planes[p].rows() == planes[0].rows() &&
                  planes[p].cols() == planes[0].cols());
    rows[p] = planes[p].data().data();
  }
  if (lanes_ == 0 || k_ == 0) return grew;
  if (!lane_rows) {
    copy_segments(rows, 0, k_, 0, lanes_);
    count_fill(k_, (lanes_ + kPackTile - 1) / kPackTile * kPackTile);
    return grew;
  }
  const std::size_t last = lanes_ / kPackTile * kPackTile;  // partial panel
  for (std::size_t p = 0; p < planes.size(); ++p) {
    // Its lanes past `lanes` are padding: zero them before the transposes.
    if (last < lanes_) {
      std::fill_n(planes_[p].data() + last * k_, kPackTile * k_, 0.0f);
    }
    for (std::size_t l = 0; l < lanes_; l += kPackTile) {
      transpose_tile(rows[p] + l * k_, k_, std::min(kPackTile, lanes_ - l),
                     k_, planes_[p].data() + l * k_, kPackTile);
    }
  }
  count_fill(lanes_, k_);
  return grew;
}

}  // namespace egemm::gemm
