#include "gemm/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "fp/twofold.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace egemm::gemm {

Matrix random_matrix(std::size_t rows, std::size_t cols, float lo, float hi,
                     std::uint64_t seed) {
  Matrix m(rows, cols);
  util::Xoshiro256 rng(seed);
  for (float& value : m.data()) value = rng.uniform(lo, hi);
  return m;
}

MatrixD widen(const Matrix& m) {
  MatrixD wide(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) {
    wide.data()[i] = static_cast<double>(m.data()[i]);
  }
  return wide;
}

Matrix transpose(const Matrix& m) {
  Matrix t;
  transpose_into(m, t);
  return t;
}

void transpose_into(const Matrix& m, Matrix& out) {
  EGEMM_EXPECTS(&m != &out);
  out.resize(m.cols(), m.rows());
  // 32x32 blocks: a block's strided reads stay in cache while each output
  // row segment is written contiguously.
  constexpr std::size_t kBlock = 32;
  for (std::size_t i0 = 0; i0 < m.rows(); i0 += kBlock) {
    const std::size_t i1 = std::min(m.rows(), i0 + kBlock);
    for (std::size_t j0 = 0; j0 < m.cols(); j0 += kBlock) {
      const std::size_t j1 = std::min(m.cols(), j0 + kBlock);
      for (std::size_t j = j0; j < j1; ++j) {
        for (std::size_t i = i0; i < i1; ++i) out.at(j, i) = m.at(i, j);
      }
    }
  }
}

MatrixD gemm_reference(const Matrix& a, const Matrix& b, const Matrix* c) {
  EGEMM_EXPECTS(a.cols() == b.rows());
  EGEMM_EXPECTS(c == nullptr ||
                (c->rows() == a.rows() && c->cols() == b.cols()));
  const std::size_t m = a.rows();
  const std::size_t n = b.cols();
  const std::size_t k = a.cols();

  MatrixD d(m, n);
  // Cache-blocked with a double-double accumulator per output element so
  // the reference stays trustworthy at the largest test sizes.
  constexpr std::size_t kBlock = 64;
  std::vector<double> lo_part(n);
  for (std::size_t i = 0; i < m; ++i) {
    double* drow = d.row(i);
    std::fill(lo_part.begin(), lo_part.end(), 0.0);
    if (c != nullptr) {
      for (std::size_t j = 0; j < n; ++j) {
        drow[j] = static_cast<double>(c->at(i, j));
      }
    }
    for (std::size_t k0 = 0; k0 < k; k0 += kBlock) {
      const std::size_t k1 = std::min(k, k0 + kBlock);
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const double av = static_cast<double>(a.at(i, kk));
        const float* brow = b.row(kk);
        for (std::size_t j = 0; j < n; ++j) {
          // two_prod is exact for float inputs widened to double, so only
          // the double-double sum matters.
          const double prod = av * static_cast<double>(brow[j]);
          fp::dd_add(drow[j], lo_part[j], prod);
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) drow[j] += lo_part[j];
  }
  return d;
}

double max_abs_error(const MatrixD& reference, const Matrix& candidate) {
  EGEMM_EXPECTS(reference.rows() == candidate.rows() &&
                reference.cols() == candidate.cols());
  double max_err = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    max_err = std::max(max_err,
                       std::fabs(static_cast<double>(candidate.data()[i]) -
                                 reference.data()[i]));
  }
  return max_err;
}

double max_abs(const Matrix& m) noexcept {
  double max_mag = 0.0;
  for (const float value : m.data()) {
    max_mag = std::max(max_mag, std::fabs(static_cast<double>(value)));
  }
  return max_mag;
}

std::vector<float> row_norms(const Matrix& m) {
  std::vector<float> norms(m.rows());
  util::global_pool().parallel_for(m.rows(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      float acc = 0.0f;
      const float* row = m.row(i);
      for (std::size_t d = 0; d < m.cols(); ++d) {
        acc = std::fmaf(row[d], row[d], acc);
      }
      norms[i] = acc;
    }
  });
  return norms;
}

double max_abs_error(const Matrix& reference, const Matrix& candidate) {
  EGEMM_EXPECTS(reference.rows() == candidate.rows() &&
                reference.cols() == candidate.cols());
  double max_err = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    max_err = std::max(
        max_err, std::fabs(static_cast<double>(candidate.data()[i]) -
                           static_cast<double>(reference.data()[i])));
  }
  return max_err;
}

}  // namespace egemm::gemm
