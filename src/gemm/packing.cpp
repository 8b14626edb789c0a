#include "gemm/packing.hpp"

#include <cstring>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

#include "obs/metrics.hpp"

namespace egemm::gemm {

namespace {

/// Sizes `packs` to `planes` buffers of `size` floats each, keeping their
/// storage (contents are left for the row fills to overwrite). Returns
/// true when any buffer had to grow.
bool size_packs(std::vector<PackBuffer>& packs, std::size_t planes,
                std::size_t size) {
  EGEMM_EXPECTS(planes <= kMaxPackPlanes);
  bool grew = packs.capacity() < planes;
  packs.resize(planes);
  for (PackBuffer& pack : packs) {
    grew |= pack.capacity() < size;
    pack.resize(size);
  }
  return grew;
}

}  // namespace

bool PackedPlanesA::resize(std::size_t planes, std::size_t m, std::size_t k) {
  m_ = m;
  k_ = k;
  const std::size_t row_blocks = (m + kPackTile - 1) / kPackTile;
  return size_packs(planes_, planes, row_blocks * kPackTile * k_);
}

void PackedPlanesA::transpose_tile(const float* src, std::size_t ld,
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

void PackedPlanesA::count_rows(std::size_t r0, std::size_t r1) const {
  static_cast<void>(r0);  // unused with observability compiled out
  static_cast<void>(r1);
  EGEMM_COUNTER_ADD("pack.a_bytes",
                    planes_.size() * (r1 - r0) * k_ * sizeof(float));
  EGEMM_COUNTER_ADD("pack.calls", 1);
}

bool PackedPlanesA::assign(std::span<const Matrix> planes) {
  EGEMM_EXPECTS(!planes.empty());
  const bool grew = resize(planes.size(), planes[0].rows(), planes[0].cols());
  for (const Matrix& plane : planes) {
    EGEMM_EXPECTS(plane.rows() == m_ && plane.cols() == k_);
  }
  if (m_ == 0) return grew;
  const std::size_t last = m_ / kPackTile * kPackTile;  // partial block
  for (std::size_t p = 0; p < planes.size(); ++p) {
    // Its lanes past m are padding: zero them before the transposes.
    if (last < m_) {
      std::fill_n(planes_[p].data() + last * k_, kPackTile * k_, 0.0f);
    }
    for (std::size_t r = 0; r < m_; r += kPackTile) {
      transpose_tile(planes[p].data().data() + r * k_, k_,
                     std::min(kPackTile, m_ - r), k_,
                     planes_[p].data() + r * k_, kPackTile);
    }
  }
  count_rows(0, m_);
  return grew;
}

bool PackedPlanesB::resize(std::size_t planes, std::size_t k, std::size_t n) {
  k_ = k;
  n_ = n;
  const std::size_t col_blocks = (n + kPackTile - 1) / kPackTile;
  return size_packs(planes_, planes, col_blocks * k_ * kPackTile);
}

void PackedPlanesB::copy_segments(const float* const* strip, std::size_t r,
                                  std::size_t rows, std::size_t c0,
                                  std::size_t c1) {
  const std::size_t width = c1 - c0;
  const std::size_t full = width / kPackTile;  // whole 16-float segments
  const std::size_t tail = width - full * kPackTile;
  const std::size_t block_stride = k_ * kPackTile;
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    float* const first_block =
        planes_[p].data() + (c0 / kPackTile) * block_stride + r * kPackTile;
    for (std::size_t i = 0; i < rows; ++i) {
      const float* src = strip[p] + i * width;
      float* dst = first_block + i * kPackTile;
      for (std::size_t s = 0; s < full; ++s) {
        std::memcpy(dst, src, kPackTile * sizeof(float));
        src += kPackTile;
        dst += block_stride;
      }
      if (tail > 0) {  // only the last block is partial: zero past n
        std::memcpy(dst, src, tail * sizeof(float));
        std::fill(dst + tail, dst + kPackTile, 0.0f);
      }
    }
  }
}

void PackedPlanesB::count_rows(std::size_t r0, std::size_t r1) const {
  static_cast<void>(r0);  // unused with observability compiled out
  static_cast<void>(r1);
  EGEMM_COUNTER_ADD("pack.b_bytes", planes_.size() * (r1 - r0) *
                                        ((n_ + kPackTile - 1) / kPackTile) *
                                        kPackTile * sizeof(float));
  EGEMM_COUNTER_ADD("pack.calls", 1);
}

bool PackedPlanesB::assign(std::span<const Matrix> planes) {
  EGEMM_EXPECTS(!planes.empty());
  const bool grew = resize(planes.size(), planes[0].rows(), planes[0].cols());
  const float* rows[kMaxPackPlanes] = {};
  for (std::size_t p = 0; p < planes.size(); ++p) {
    EGEMM_EXPECTS(planes[p].rows() == k_ && planes[p].cols() == n_);
    rows[p] = planes[p].data().data();
  }
  if (k_ == 0 || n_ == 0) return grew;
  copy_segments(rows, 0, k_, 0, n_);
  count_rows(0, k_);
  return grew;
}

}  // namespace egemm::gemm
