#include "gemm/packing.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace egemm::gemm {

namespace {

/// Sizes `packs` to `planes` buffers of `size` floats each, keeping their
/// storage (contents are left for the row packs to overwrite). Returns
/// true when any buffer had to grow.
bool size_packs(std::vector<PackBuffer>& packs, std::size_t planes,
                std::size_t size) {
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
  row_blocks_ = (m + kPackTile - 1) / kPackTile;
  return size_packs(planes_, planes, row_blocks_ * kPackTile * k_);
}

void PackedPlanesA::pack_rows(std::span<const Matrix> planes, std::size_t r0,
                              std::size_t r1) {
  EGEMM_EXPECTS(planes.size() == planes_.size() && r0 <= r1 && r1 <= m_);
  if (r0 == r1 || k_ == 0) return;
  for (std::size_t p = 0; p < planes.size(); ++p) {
    const Matrix& plane = planes[p];
    EGEMM_EXPECTS(plane.rows() == m_ && plane.cols() == k_);
    float* pack = planes_[p].data();
    // Rows of a block are consecutive in both layouts, so the rows are one
    // contiguous copy; the block that holds row m - 1 zeroes its rows past m.
    std::memcpy(pack + r0 * k_, plane.row(r0), (r1 - r0) * k_ * sizeof(float));
    if (r1 == m_) {
      std::fill(pack + m_ * k_, pack + row_blocks_ * kPackTile * k_, 0.0f);
    }
    EGEMM_COUNTER_ADD("pack.a_bytes", (r1 - r0) * k_ * sizeof(float));
  }
  EGEMM_COUNTER_ADD("pack.calls", 1);
}

bool PackedPlanesA::assign(std::span<const Matrix> planes) {
  EGEMM_EXPECTS(!planes.empty());
  const bool grew = resize(planes.size(), planes[0].rows(), planes[0].cols());
  pack_rows(planes, 0, m_);
  return grew;
}

bool PackedPlanesB::resize(std::size_t planes, std::size_t k, std::size_t n) {
  k_ = k;
  n_ = n;
  col_blocks_ = (n + kPackTile - 1) / kPackTile;
  return size_packs(planes_, planes, col_blocks_ * k_ * kPackTile);
}

void PackedPlanesB::pack_rows(std::span<const Matrix> planes, std::size_t r0,
                              std::size_t r1) {
  EGEMM_EXPECTS(planes.size() == planes_.size() && r0 <= r1 && r1 <= k_);
  if (r0 == r1 || n_ == 0) return;
  // Columns past n in the last block are the only padding.
  const std::size_t last = col_blocks_ - 1;
  const std::size_t last_width = n_ - last * kPackTile;
  for (std::size_t p = 0; p < planes.size(); ++p) {
    const Matrix& plane = planes[p];
    EGEMM_EXPECTS(plane.rows() == k_ && plane.cols() == n_);
    float* pack = planes_[p].data();
    for (std::size_t r = r0; r < r1; ++r) {
      const float* src = plane.row(r);
      for (std::size_t cb = 0; cb < col_blocks_; ++cb) {
        const std::size_t width = cb == last ? last_width : kPackTile;
        std::memcpy(pack + cb * k_ * kPackTile + r * kPackTile,
                    src + cb * kPackTile, width * sizeof(float));
      }
      float* tail = pack + last * k_ * kPackTile + r * kPackTile;
      std::fill(tail + last_width, tail + kPackTile, 0.0f);
    }
    EGEMM_COUNTER_ADD("pack.b_bytes",
                      (r1 - r0) * col_blocks_ * kPackTile * sizeof(float));
  }
  EGEMM_COUNTER_ADD("pack.calls", 1);
}

bool PackedPlanesB::assign(std::span<const Matrix> planes) {
  EGEMM_EXPECTS(!planes.empty());
  const bool grew = resize(planes.size(), planes[0].rows(), planes[0].cols());
  pack_rows(planes, 0, k_);
  return grew;
}

}  // namespace egemm::gemm
