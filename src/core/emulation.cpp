#include "core/emulation.hpp"

#include "tcsim/tensor_core.hpp"
#include "util/assert.hpp"

namespace egemm::core {

namespace {

using tcsim::FragmentA;
using tcsim::FragmentAcc;
using tcsim::FragmentB;
using tcsim::kTcK;
using tcsim::kTcM;
using tcsim::kTcN;

/// Splits a binary32 tile into `planes` binary16 tiles by split depth.
template <typename Tile, typename HalfTile>
void split_tile(const Tile& x, SplitMethod method,
                std::span<HalfTile> planes) noexcept {
  constexpr auto kSize = static_cast<std::size_t>(Tile::kRows * Tile::kCols);
  float values[kMaxSplitPlanes][kSize];
  float* const out[kMaxSplitPlanes] = {values[0], values[1], values[2]};
  split_planes_f32(x.flat(), {out, planes.size()}, method);
  for (std::size_t p = 0; p < planes.size(); ++p) {
    for (std::size_t i = 0; i < kSize; ++i) {
      planes[p].flat()[i] = fp::Half(values[p][i]);  // exact: binary16-valued
    }
  }
}

/// Compensated binary16 two-sum: s + t absorbs x, keeping the running
/// error term. All operations round to binary16 (Dekker's premise).
void dh_add(fp::Half& s, fp::Half& t, fp::Half x) noexcept {
  const fp::Half sum = s + x;
  const fp::Half bv = sum - s;
  const fp::Half err = (s - (sum - bv)) + (x - bv);
  t = t + err;
  const fp::Half renorm = sum + t;
  t = t - (renorm - sum);
  s = renorm;
}

}  // namespace

void scheme_mma_tile(SchemeId scheme, FragmentAcc& d, const FragmentF32& a,
                     const FragmentF32B& b, const FragmentAcc& c) noexcept {
  const SchemeDescriptor& rung = core::scheme(scheme);
  const auto planes = static_cast<std::size_t>(rung.planes);
  FragmentA ap[kMaxSplitPlanes];
  FragmentB bp[kMaxSplitPlanes];
  split_tile(a, rung.split, std::span<FragmentA>(ap, planes));
  split_tile(b, rung.split, std::span<FragmentB>(bp, planes));
  FragmentAcc acc = c;
  for (const SchemeTerm& term : rung.terms) {
    tcsim::mma_sync(acc, ap[term.a_depth], bp[term.b_depth], acc);
  }
  d = acc;
}

HalfProduct dekker_two_prod_half(fp::Half a, fp::Half b) noexcept {
  // Veltkamp split inside binary16: splitter 2^6 + 1 for the 11-bit
  // significand. (With odd precision the classical error formula can be
  // off by one ulp of the error term; acceptable for this baseline.)
  const fp::Half splitter = fp::Half(65.0f);
  const fp::Half ca = splitter * a;
  const fp::Half ahi = ca - (ca - a);
  const fp::Half alo = a - ahi;
  const fp::Half cb = splitter * b;
  const fp::Half bhi = cb - (cb - b);
  const fp::Half blo = b - bhi;

  const fp::Half p = a * b;
  const fp::Half e =
      ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo;
  return {p, e};
}

void dekker_mma_tile(FragmentAcc& d, const FragmentF32& a,
                     const FragmentF32B& b, const FragmentAcc& c,
                     long* instruction_count) noexcept {
  // Dekker's algorithm assumes the hardware computes half -> half, so the
  // whole tile is evaluated scalar-by-scalar in binary16 arithmetic with a
  // compensated (s, t) accumulator pair per output element. Each emulated
  // extended-precision multiply-accumulate costs 16 binary16 instructions
  // (§1), versus Alg. 1's 4 tile-wide Tensor Core instructions.
  long ops = 0;
  for (int i = 0; i < kTcM; ++i) {
    for (int j = 0; j < kTcN; ++j) {
      const SplitHalves ch = split_scalar(c.at(i, j), SplitMethod::kRoundSplit);
      fp::Half s = ch.hi;
      fp::Half t = ch.lo;
      for (int k = 0; k < kTcK; ++k) {
        const SplitHalves av = split_scalar(a.at(i, k), SplitMethod::kRoundSplit);
        const SplitHalves bv = split_scalar(b.at(k, j), SplitMethod::kRoundSplit);
        // Cross products of the split halves, each compensated.
        const HalfProduct hh = dekker_two_prod_half(av.hi, bv.hi);
        dh_add(s, t, hh.p);
        dh_add(s, t, hh.e);
        dh_add(s, t, av.hi * bv.lo);
        dh_add(s, t, av.lo * bv.hi);
        dh_add(s, t, av.lo * bv.lo);
        ops += kDekkerInstructions;
      }
      d.at(i, j) = static_cast<float>(s.to_double() + t.to_double());
    }
  }
  if (instruction_count != nullptr) *instruction_count += ops;
}

}  // namespace egemm::core
