#pragma once
// Row-major owning matrices and reference GEMMs.
//
// Two element types are used throughout the repository: binary32 for the
// kernels under test and binary64 for the CPU ground-truth reference (the
// high-precision side of the emulation-design workflow, Fig. 2a).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace egemm::gemm {

/// std::allocator whose value-less construct() default-initializes, so
/// growing a vector of arithmetic elements leaves them unwritten.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
class BasicMatrix {
 public:
  BasicMatrix() = default;
  /// A zero-filled rows x cols matrix.
  BasicMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t ld() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }

  T& at(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  const T& at(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  std::span<T> data() noexcept { return data_; }
  std::span<const T> data() const noexcept { return data_; }
  T* row(std::size_t r) noexcept { return data_.data() + r * cols_; }
  const T* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Reshapes in place, reusing the existing storage; allocates only when
  /// the new extent exceeds capacity(). Element values are unspecified
  /// afterwards, and grown storage is not written here: a fresh output is
  /// first touched by whichever threads fill it (the execute pipeline's
  /// tiles and prep passes) instead of being zeroed serially. Plan workspaces
  /// (gemm/plan.hpp) rely on this staying allocation-free for repeated
  /// same-shape calls.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Elements the current storage can hold without reallocating.
  std::size_t capacity() const noexcept { return data_.capacity(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T, DefaultInitAllocator<T>> data_;
};

using Matrix = BasicMatrix<float>;
using MatrixD = BasicMatrix<double>;

/// Uniform random matrix in [lo, hi), reproducible from the seed. The
/// paper's precision experiments sample from [-1, +1] (§7.2).
Matrix random_matrix(std::size_t rows, std::size_t cols, float lo, float hi,
                     std::uint64_t seed);

/// Widens a binary32 matrix to binary64 (exact).
MatrixD widen(const Matrix& m);

/// Out-of-place transpose (transpose_into a fresh matrix).
Matrix transpose(const Matrix& m);

/// transpose() into caller-owned storage (`out` is resized in place):
/// the iteration-loop form that avoids a fresh allocation per call once
/// `out` has reached its steady-state capacity. `out` must not alias `m`.
void transpose_into(const Matrix& m, Matrix& out);

/// Ground-truth D = A x B + C in binary64 with compensated accumulation
/// (double-double), giving a reference accurate far beyond binary32.
MatrixD gemm_reference(const Matrix& a, const Matrix& b, const Matrix* c);

/// Max |candidate - reference| over all elements (Eq. 10 generalized to a
/// binary64 reference).
double max_abs_error(const MatrixD& reference, const Matrix& candidate);

/// Max |a - b| between two binary32 matrices (the paper's Eq. 10 uses the
/// single-precision result as reference).
double max_abs_error(const Matrix& reference, const Matrix& candidate);

/// Max |x| over all elements (0 for an empty matrix): the scale context
/// the accuracy-contract resolution derives a-priori bounds from.
double max_abs(const Matrix& m) noexcept;

/// Squared L2 norm of each row, fmaf-accumulated in column order: the
/// ||x||^2 terms of the apps' GEMM-based distances.
std::vector<float> row_norms(const Matrix& m);

}  // namespace egemm::gemm
