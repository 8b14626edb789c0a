// Tests for the tile-level emulation algorithms (core/emulation.hpp).
#include "core/emulation.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "gemm/plan.hpp"
#include "tcsim/tensor_core.hpp"
#include "util/rng.hpp"

namespace egemm::core {
namespace {

using tcsim::FragmentAcc;
using tcsim::kTcK;
using tcsim::kTcM;
using tcsim::kTcN;

struct TileSet {
  FragmentF32 a;
  FragmentF32B b;
  FragmentAcc c;
};

TileSet random_tiles(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  TileSet t;
  for (int i = 0; i < kTcM; ++i) {
    for (int k = 0; k < kTcK; ++k) t.a.at(i, k) = rng.uniform(-1.0f, 1.0f);
  }
  for (int k = 0; k < kTcK; ++k) {
    for (int j = 0; j < kTcN; ++j) t.b.at(k, j) = rng.uniform(-1.0f, 1.0f);
  }
  for (int i = 0; i < kTcM; ++i) {
    for (int j = 0; j < kTcN; ++j) t.c.at(i, j) = rng.uniform(-1.0f, 1.0f);
  }
  return t;
}

/// Binary64 reference for one tile.
void reference_tile(const TileSet& t, double out[kTcM][kTcN]) {
  for (int i = 0; i < kTcM; ++i) {
    for (int j = 0; j < kTcN; ++j) {
      double acc = static_cast<double>(t.c.at(i, j));
      for (int k = 0; k < kTcK; ++k) {
        acc += static_cast<double>(t.a.at(i, k)) *
               static_cast<double>(t.b.at(k, j));
      }
      out[i][j] = acc;
    }
  }
}

double max_tile_error(const FragmentAcc& d, const double ref[kTcM][kTcN]) {
  double max_err = 0.0;
  for (int i = 0; i < kTcM; ++i) {
    for (int j = 0; j < kTcN; ++j) {
      max_err = std::max(
          max_err, std::fabs(static_cast<double>(d.at(i, j)) - ref[i][j]));
    }
  }
  return max_err;
}

class EmulationTileTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmulationTileTest, Alg1AchievesExtendedPrecision) {
  const TileSet t = random_tiles(GetParam());
  double ref[kTcM][kTcN];
  reference_tile(t, ref);
  FragmentAcc d;
  scheme_mma_tile(SchemeId::kRound2, d, t.a, t.b, t.c);
  // With |inputs| <= 1, each output sums 16 products in [-1,1] plus C: the
  // split error per product is ~2^-21; accumulated over 16 terms plus fp32
  // accumulation noise, 16 * 2^-20 is a safe (loose) bound.
  EXPECT_LT(max_tile_error(d, ref), 16 * 0x1.0p-20);
}

TEST_P(EmulationTileTest, Alg1BeatsMarkidis) {
  // Aggregated over many tiles, EGEMM-TC's round-split + 4th product term
  // must reduce the max error vs Markidis (paper: 2.33x on large GEMMs).
  double egemm_err = 0.0, markidis_err = 0.0;
  for (std::uint64_t s = 0; s < 40; ++s) {
    const TileSet t = random_tiles(GetParam() * 1000 + s);
    double ref[kTcM][kTcN];
    reference_tile(t, ref);
    FragmentAcc d1, d2;
    scheme_mma_tile(SchemeId::kRound2, d1, t.a, t.b, t.c);
    scheme_mma_tile(SchemeId::kMarkidis, d2, t.a, t.b, t.c);
    egemm_err = std::max(egemm_err, max_tile_error(d1, ref));
    markidis_err = std::max(markidis_err, max_tile_error(d2, ref));
  }
  EXPECT_LT(egemm_err, markidis_err);
}

TEST_P(EmulationTileTest, HalfTileIsOrdersOfMagnitudeWorse) {
  const TileSet t = random_tiles(GetParam());
  double ref[kTcM][kTcN];
  reference_tile(t, ref);
  FragmentAcc emu, half;
  scheme_mma_tile(SchemeId::kRound2, emu, t.a, t.b, t.c);
  scheme_mma_tile(SchemeId::kHalf, half, t.a, t.b, t.c);
  EXPECT_GT(max_tile_error(half, ref), 20.0 * max_tile_error(emu, ref));
}

TEST_P(EmulationTileTest, DekkerAchievesExtendedPrecisionAt16xCost) {
  const TileSet t = random_tiles(GetParam());
  double ref[kTcM][kTcN];
  reference_tile(t, ref);
  FragmentAcc d, half;
  long ops = 0;
  dekker_mma_tile(d, t.a, t.b, t.c, &ops);
  scheme_mma_tile(SchemeId::kHalf, half, t.a, t.b, t.c);
  // Dekker emulation must beat plain half compute by a wide margin...
  EXPECT_LT(max_tile_error(d, ref), 0.2 * max_tile_error(half, ref));
  // ...and cost 16 binary16 instructions per emulated multiply-accumulate.
  EXPECT_EQ(ops, long{kDekkerInstructions} * kTcM * kTcN * kTcK);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmulationTileTest,
                         ::testing::Values(11u, 222u, 3333u, 44444u));

TEST(Emulation, TruncateSplitVariantMatchesMarkidisPlusLoLo) {
  // Ablation sanity: Alg. 1 run with truncate-split differs from Markidis
  // only by the Alo x Blo term, so it must be at least as accurate.
  double alg1_trunc_err = 0.0, markidis_err = 0.0;
  for (std::uint64_t s = 0; s < 40; ++s) {
    const TileSet t = random_tiles(777000 + s);
    double ref[kTcM][kTcN];
    reference_tile(t, ref);
    FragmentAcc d1, d2;
    scheme_mma_tile(SchemeId::kTruncate2, d1, t.a, t.b, t.c);
    scheme_mma_tile(SchemeId::kMarkidis, d2, t.a, t.b, t.c);
    alg1_trunc_err = std::max(alg1_trunc_err, max_tile_error(d1, ref));
    markidis_err = std::max(markidis_err, max_tile_error(d2, ref));
  }
  EXPECT_LE(alg1_trunc_err, markidis_err * 1.05);
}

TEST(Emulation, SchemeTileMatchesTheRungsPlanBitwise) {
  // One tile of a rung is its fused GEMM plan on a 16x16x16 problem: the
  // same planes, the same terms in the same order, the same accumulation.
  const TileSet t = random_tiles(99);
  gemm::Matrix a(kTcM, kTcK), b(kTcK, kTcN), c(kTcM, kTcN);
  std::ranges::copy(t.a.flat(), a.data().begin());
  std::ranges::copy(t.b.flat(), b.data().begin());
  std::ranges::copy(t.c.flat(), c.data().begin());
  gemm::GemmContext ctx;
  for (const SchemeId rung : scheme_ladder()) {
    FragmentAcc tile;
    scheme_mma_tile(rung, tile, t.a, t.b, t.c);
    gemm::Matrix d;
    ctx.plan_scheme(rung, kTcM, kTcN, kTcK)->execute(ctx, a, b, &c, d);
    ASSERT_EQ(d.size(), tile.flat().size());
    EXPECT_EQ(std::memcmp(d.data().data(), tile.flat().data(),
                          d.size() * sizeof(float)),
              0)
        << scheme_name(rung);
  }
}

TEST(Emulation, ZeroInputsGiveExactC) {
  TileSet t{};  // zero tiles
  util::Xoshiro256 rng(1);
  for (int i = 0; i < kTcM; ++i) {
    for (int j = 0; j < kTcN; ++j) t.c.at(i, j) = rng.uniform(-1.0f, 1.0f);
  }
  FragmentAcc d;
  scheme_mma_tile(SchemeId::kRound2, d, t.a, t.b, t.c);
  for (int i = 0; i < kTcM; ++i) {
    for (int j = 0; j < kTcN; ++j) EXPECT_EQ(d.at(i, j), t.c.at(i, j));
  }
}

TEST(Emulation, HalfRepresentableInputsAreExactThroughAlg1) {
  // When A and B are already binary16, the lo planes vanish and Alg. 1
  // degenerates to a single Tensor Core product -- bit-identical to it.
  util::Xoshiro256 rng(2);
  TileSet t;
  for (int i = 0; i < kTcM; ++i) {
    for (int k = 0; k < kTcK; ++k) {
      t.a.at(i, k) = fp::Half(rng.uniform(-1.0f, 1.0f)).to_float();
    }
  }
  for (int k = 0; k < kTcK; ++k) {
    for (int j = 0; j < kTcN; ++j) {
      t.b.at(k, j) = fp::Half(rng.uniform(-1.0f, 1.0f)).to_float();
    }
  }
  for (int i = 0; i < kTcM; ++i) {
    for (int j = 0; j < kTcN; ++j) t.c.at(i, j) = rng.uniform(-1.0f, 1.0f);
  }
  FragmentAcc emulated, direct;
  scheme_mma_tile(SchemeId::kRound2, emulated, t.a, t.b, t.c);
  scheme_mma_tile(SchemeId::kHalf, direct, t.a, t.b, t.c);
  for (int i = 0; i < kTcM; ++i) {
    for (int j = 0; j < kTcN; ++j) {
      EXPECT_EQ(emulated.at(i, j), direct.at(i, j));
    }
  }
}

TEST(Emulation, DekkerTwoProdRecoversProductError) {
  // Unlike binary64, binary16 cannot represent the 5x6-bit cross terms
  // exactly, so the compensation is approximate (~4-5 extra bits beyond
  // plain binary16), and it degrades further once the error term falls
  // into the binary16 subnormal range -- restrict |a*b| >= 2^-8.
  util::Xoshiro256 rng(3);
  int checked = 0;
  while (checked < 20000) {
    const fp::Half a(rng.uniform(-1.0f, 1.0f));
    const fp::Half b(rng.uniform(-1.0f, 1.0f));
    const double exact = a.to_double() * b.to_double();
    if (std::fabs(exact) < 0x1.0p-8) continue;
    ++checked;
    const HalfProduct r = dekker_two_prod_half(a, b);
    const double reconstructed = r.p.to_double() + r.e.to_double();
    EXPECT_LE(std::fabs(reconstructed - exact), std::fabs(exact) * 0x1.0p-14)
        << "a=" << a.to_float() << " b=" << b.to_float();
  }
}

TEST(Emulation, DekkerTwoProdBeatsPlainHalfInAggregate) {
  // Individual low-magnitude products can see the compensation misround
  // (binary16 has no headroom for an exact error term), but over the whole
  // input domain p + e is far more accurate than the bare binary16
  // product, both in total and in the worst case.
  util::Xoshiro256 rng(4);
  double sum_comp = 0.0, sum_plain = 0.0;
  double max_comp = 0.0, max_plain = 0.0;
  for (int trial = 0; trial < 20000; ++trial) {
    const fp::Half a(rng.uniform(-1.0f, 1.0f));
    const fp::Half b(rng.uniform(-1.0f, 1.0f));
    const double exact = a.to_double() * b.to_double();
    const HalfProduct r = dekker_two_prod_half(a, b);
    const double comp_err =
        std::fabs(r.p.to_double() + r.e.to_double() - exact);
    const double plain_err = std::fabs((a * b).to_double() - exact);
    sum_comp += comp_err;
    sum_plain += plain_err;
    max_comp = std::max(max_comp, comp_err);
    max_plain = std::max(max_plain, plain_err);
  }
  EXPECT_LT(sum_comp, 0.1 * sum_plain);
  EXPECT_LT(max_comp, 0.5 * max_plain);
}

}  // namespace
}  // namespace egemm::core
