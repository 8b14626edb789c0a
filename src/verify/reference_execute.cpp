#include "verify/reference_execute.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "core/split.hpp"
#include "tcsim/tensor_core.hpp"
#include "util/assert.hpp"

namespace egemm::verify {

namespace {

using gemm::ComboOrder;
using gemm::Matrix;

constexpr std::size_t kTile = 16;  // wmma primitive extent
static_assert(kTile == tcsim::kTcM && kTile == tcsim::kTcN);

/// NaN canonicalization at the D store, as the modeled hardware does (and
/// as the packed engine does): a canonical quiet NaN, never an input
/// payload.
float canonical_store(float x) noexcept {
  return std::isnan(x) ? std::numeric_limits<float>::quiet_NaN() : x;
}

/// Computes one 16x16 C tile over plane decompositions of A and B:
/// iterates k-tiles and, per the requested order, the split-product
/// terms; every dot runs with Tensor Core accumulation semantics. `acc`
/// is the fp32 accumulator tile.
void compute_c_tile(float acc[kTile][kTile], std::span<const Matrix> ap,
                    std::span<const Matrix> bp, std::size_t i0,
                    std::size_t j0, std::size_t mt, std::size_t nt,
                    std::span<const core::SchemeTerm> terms,
                    ComboOrder order) {
  const std::size_t k = ap[0].cols();

  auto k_tile_pass = [&](std::size_t k0, const core::SchemeTerm& term) {
    const std::size_t kt = std::min(kTile, k - k0);
    // Transpose the B tile plane into a contiguous [j][k] buffer so the
    // inner dot walks unit strides.
    float bt[kTile][kTile];
    const Matrix& bplane = bp[static_cast<std::size_t>(term.b_depth)];
    for (std::size_t kk = 0; kk < kt; ++kk) {
      const float* brow = bplane.row(k0 + kk) + j0;
      for (std::size_t j = 0; j < nt; ++j) bt[j][kk] = brow[j];
    }
    const Matrix& aplane = ap[static_cast<std::size_t>(term.a_depth)];
    for (std::size_t i = 0; i < mt; ++i) {
      const float* arow = aplane.row(i0 + i) + k0;
      for (std::size_t j = 0; j < nt; ++j) {
        acc[i][j] = tcsim::tc_dot_f32(arow, bt[j], static_cast<int>(kt),
                                      acc[i][j]);
      }
    }
  };

  if (order == ComboOrder::kFusedPerTile) {
    // Alg. 1: inside each k-tile all terms accumulate before moving on.
    for (std::size_t k0 = 0; k0 < k; k0 += kTile) {
      for (const core::SchemeTerm& term : terms) k_tile_pass(k0, term);
    }
  } else {
    // cuBLAS-TC-Emulation: one full-K GEMM per term, D re-read between
    // passes (numerically identical to staying in registers, since D is
    // binary32 either way).
    for (const core::SchemeTerm& term : terms) {
      for (std::size_t k0 = 0; k0 < k; k0 += kTile) k_tile_pass(k0, term);
    }
  }
}

}  // namespace

Matrix reference_execute(const gemm::GemmPlan& plan, const Matrix& a,
                         const Matrix& b, const Matrix* c) {
  EGEMM_EXPECTS(!plan.direct());
  const std::size_t m = plan.m();
  const std::size_t n = plan.n();
  const std::size_t k = plan.k();
  EGEMM_EXPECTS(a.rows() == m && a.cols() == k);
  EGEMM_EXPECTS(b.rows() == k && b.cols() == n);
  EGEMM_EXPECTS(c == nullptr || (c->rows() == m && c->cols() == n));

  // Plane p = split depth p, hi first.
  const auto planes = static_cast<std::size_t>(plan.planes());
  std::vector<Matrix> ap(planes, Matrix(m, k));
  std::vector<Matrix> bp(planes, Matrix(k, n));
  const auto split = [&](const Matrix& x, std::vector<Matrix>& out) {
    float* plane[core::kMaxSplitPlanes] = {};
    for (std::size_t p = 0; p < planes; ++p) plane[p] = out[p].data().data();
    core::split_planes_f32(x.data(), {plane, planes}, plan.split());
  };
  split(a, ap);
  split(b, bp);

  Matrix d = c != nullptr ? *c : Matrix(m, n);
  for (std::size_t i0 = 0; i0 < m; i0 += kTile) {
    const std::size_t mt = std::min(kTile, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
      const std::size_t nt = std::min(kTile, n - j0);
      float acc[kTile][kTile];
      for (std::size_t i = 0; i < mt; ++i) {
        for (std::size_t j = 0; j < nt; ++j) acc[i][j] = d.at(i0 + i, j0 + j);
      }
      compute_c_tile(acc, ap, bp, i0, j0, mt, nt, plan.terms(), plan.order());
      for (std::size_t i = 0; i < mt; ++i) {
        for (std::size_t j = 0; j < nt; ++j) {
          d.at(i0 + i, j0 + j) = canonical_store(acc[i][j]);
        }
      }
    }
  }
  return d;
}

}  // namespace egemm::verify
