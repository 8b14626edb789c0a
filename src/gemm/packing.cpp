#include "gemm/packing.hpp"

#include <cstring>

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

/// The fill assign() runs: copies a run of each given plane's elements.
auto copy_from(std::span<const Matrix> planes) {
  return [planes](std::size_t first, std::size_t count, float* const* out) {
    for (std::size_t p = 0; p < planes.size(); ++p) {
      std::memcpy(out[p], planes[p].data().data() + first,
                  count * sizeof(float));
    }
  };
}

}  // namespace

bool PackedPlanesA::resize(std::size_t planes, std::size_t m, std::size_t k) {
  m_ = m;
  k_ = k;
  const std::size_t row_blocks = (m + kPackTile - 1) / kPackTile;
  return size_packs(planes_, planes, row_blocks * kPackTile * k_);
}

void PackedPlanesA::finish_rows(std::size_t r0, std::size_t r1) {
  if (r1 == m_) {
    for (PackBuffer& plane : planes_) {
      std::fill(plane.data() + m_ * k_, plane.data() + plane.size(), 0.0f);
    }
  }
  static_cast<void>(r0);  // unused with observability compiled out
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
  fill_rows(0, m_, copy_from(planes));
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
  for (const Matrix& plane : planes) {
    EGEMM_EXPECTS(plane.rows() == k_ && plane.cols() == n_);
  }
  fill_rows(0, k_, copy_from(planes));
  return grew;
}

}  // namespace egemm::gemm
