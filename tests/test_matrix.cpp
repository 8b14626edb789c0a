// Tests for matrices and the binary64 reference GEMM (gemm/matrix.hpp).
#include "gemm/matrix.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace egemm::gemm {
namespace {

TEST(Matrix, BasicAccessAndLayout) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.ld(), 4u);
  EXPECT_EQ(m.size(), 12u);
  m.at(1, 2) = 5.0f;
  EXPECT_EQ(m.data()[1 * 4 + 2], 5.0f);
  EXPECT_EQ(m.row(1)[2], 5.0f);
  m.fill(1.0f);
  for (const float v : m.data()) EXPECT_EQ(v, 1.0f);
}

TEST(Matrix, RandomIsDeterministicAndInRange) {
  const Matrix a = random_matrix(16, 16, -1.0f, 1.0f, 99);
  const Matrix b = random_matrix(16, 16, -1.0f, 1.0f, 99);
  const Matrix c = random_matrix(16, 16, -1.0f, 1.0f, 100);
  bool identical_ab = true, identical_ac = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    identical_ab &= a.data()[i] == b.data()[i];
    identical_ac &= a.data()[i] == c.data()[i];
    EXPECT_GE(a.data()[i], -1.0f);
    EXPECT_LT(a.data()[i], 1.0f);
  }
  EXPECT_TRUE(identical_ab);
  EXPECT_FALSE(identical_ac);
}

TEST(Matrix, TransposeRoundTrips) {
  const Matrix a = random_matrix(5, 9, -1.0f, 1.0f, 3);
  const Matrix t = transpose(a);
  EXPECT_EQ(t.rows(), 9u);
  EXPECT_EQ(t.cols(), 5u);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(t.at(j, i), a.at(i, j));
    }
  }
  const Matrix back = transpose(t);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(back.data()[i], a.data()[i]);
  }
}

TEST(Matrix, TransposeEdgeShapesMatchNaiveLoop) {
  // Empty shapes and shapes that are not multiples of the 32x32 block.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {0, 5}, {1, 1}, {1, 70}, {33, 65}, {4097, 3}};
  for (const auto& [rows, cols] : shapes) {
    const Matrix a = random_matrix(rows, cols, -1.0f, 1.0f, rows + cols);
    Matrix naive(cols, rows);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) naive.at(j, i) = a.at(i, j);
    }
    // transpose_into must fully overwrite a previously larger buffer.
    Matrix reused(100, 100);
    reused.fill(-7.0f);
    transpose_into(a, reused);
    for (const Matrix& t : {transpose(a), reused}) {
      ASSERT_EQ(t.rows(), cols);
      ASSERT_EQ(t.cols(), rows);
      ASSERT_EQ(t.size(), naive.size());
      for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ(t.data()[i], naive.data()[i])
            << rows << "x" << cols << " element " << i;
      }
    }
  }
}

TEST(Matrix, MaxAbsMatchesSerialScanForEveryTailLength) {
  EXPECT_EQ(max_abs(Matrix()), 0.0);
  for (std::size_t size = 1; size <= 9; ++size) {
    for (std::size_t peak = 0; peak < size; ++peak) {
      Matrix m = random_matrix(1, size, -0.5f, 0.5f, size);
      m.at(0, peak) = -3.25f;
      EXPECT_EQ(max_abs(m), 3.25) << "size " << size << " peak " << peak;
    }
  }
}

TEST(Matrix, RowNormsMatchSerialFmafChain) {
  EXPECT_TRUE(row_norms(Matrix(0, 4)).empty());
  const Matrix m = random_matrix(70, 33, -2.0f, 2.0f, 5);
  const std::vector<float> norms = row_norms(m);
  ASSERT_EQ(norms.size(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    float acc = 0.0f;
    for (std::size_t d = 0; d < m.cols(); ++d) {
      acc = std::fmaf(m.at(i, d), m.at(i, d), acc);
    }
    EXPECT_EQ(norms[i], acc) << "row " << i;
  }
}

TEST(Matrix, WidenIsExact) {
  const Matrix a = random_matrix(7, 7, -100.0f, 100.0f, 4);
  const MatrixD w = widen(a);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(w.data()[i], static_cast<double>(a.data()[i]));
  }
}

TEST(ReferenceGemm, TinyKnownProduct) {
  Matrix a(2, 2), b(2, 2);
  a.at(0, 0) = 1;  a.at(0, 1) = 2;
  a.at(1, 0) = 3;  a.at(1, 1) = 4;
  b.at(0, 0) = 5;  b.at(0, 1) = 6;
  b.at(1, 0) = 7;  b.at(1, 1) = 8;
  const MatrixD d = gemm_reference(a, b, nullptr);
  EXPECT_EQ(d.at(0, 0), 19.0);
  EXPECT_EQ(d.at(0, 1), 22.0);
  EXPECT_EQ(d.at(1, 0), 43.0);
  EXPECT_EQ(d.at(1, 1), 50.0);
}

TEST(ReferenceGemm, AddsCWhenProvided) {
  const Matrix a = random_matrix(4, 5, -1, 1, 5);
  const Matrix b = random_matrix(5, 3, -1, 1, 6);
  Matrix c(4, 3);
  c.fill(10.0f);
  const MatrixD with_c = gemm_reference(a, b, &c);
  const MatrixD without = gemm_reference(a, b, nullptr);
  for (std::size_t i = 0; i < with_c.size(); ++i) {
    EXPECT_NEAR(with_c.data()[i], without.data()[i] + 10.0, 1e-12);
  }
}

TEST(ReferenceGemm, MatchesNaiveDoubleOnModerateSize) {
  const Matrix a = random_matrix(33, 47, -1, 1, 7);
  const Matrix b = random_matrix(47, 29, -1, 1, 8);
  const MatrixD d = gemm_reference(a, b, nullptr);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      long double acc = 0.0L;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<long double>(a.at(i, k)) *
               static_cast<long double>(b.at(k, j));
      }
      EXPECT_NEAR(d.at(i, j), static_cast<double>(acc), 1e-13);
    }
  }
}

TEST(MaxAbsError, BothOverloads) {
  Matrix ref(2, 2), cand(2, 2);
  ref.fill(1.0f);
  cand.fill(1.0f);
  cand.at(1, 1) = 1.5f;
  EXPECT_DOUBLE_EQ(max_abs_error(ref, cand), 0.5);
  const MatrixD refd = widen(ref);
  EXPECT_DOUBLE_EQ(max_abs_error(refd, cand), 0.5);
}

}  // namespace
}  // namespace egemm::gemm
