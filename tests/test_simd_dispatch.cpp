// The SIMD dispatch layer's contract (DESIGN.md §15): every compiled-in,
// machine-executable kernel variant is BIT-IDENTICAL to the scalar tier --
// over the full binary16 value space (plus rounding-boundary
// neighbourhoods and a large random sweep) for the converters, and over
// randomized half-valued inputs with every remainder path for the MMA
// kernels. The split's round-through-binary16 kernel is additionally
// checked on all 2^32 inputs (Release builds) and under a caller MXCSR
// with FTZ and DAZ set. Plus the cpuid probe, EGEMM_FORCE_ISA parsing, the
// programmatic force/clamp API, and the `tcsim.isa.level` gauge.
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if defined(__x86_64__) || defined(__i386__)
#include <pmmintrin.h>  // MXCSR access, _MM_DENORMALS_ZERO_ON
#define EGEMM_TEST_X86 1
#else
#define EGEMM_TEST_X86 0
#endif

#include "core/split.hpp"
#include "gemm/egemm.hpp"
#include "gemm/plan.hpp"
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"
#include "simd/half_convert_core.hpp"
#include "simd/isa.hpp"
#include "util/thread_pool.hpp"
#include "verify/reference_execute.hpp"

namespace egemm {
namespace {

using simd::IsaLevel;
using simd::KernelTable;
using simd::kMmaTile;

std::vector<IsaLevel> available_levels() {
  std::vector<IsaLevel> out;
  for (int level = 0; level < simd::kIsaLevelCount; ++level) {
    const auto candidate = static_cast<IsaLevel>(level);
    if (simd::isa_available(candidate)) out.push_back(candidate);
  }
  return out;
}

/// Restores auto-resolution (which still honors EGEMM_FORCE_ISA from the
/// environment, so CI's forced-scalar jobs stay forced) when a test that
/// called force_isa exits.
struct IsaGuard {
  IsaGuard() = default;
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
  ~IsaGuard() { simd::reset_isa(); }
};

// -- probe / parse / force ---------------------------------------------------

TEST(IsaProbe, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(simd::isa_available(IsaLevel::kScalar));
  EXPECT_NE(simd::kernels_for(IsaLevel::kScalar), nullptr);
}

TEST(IsaProbe, BestSupportedIsExecutable) {
  const simd::CpuFeatures features = simd::query_cpu_features();
  const IsaLevel best = simd::best_supported(features);
  EXPECT_TRUE(simd::isa_runtime_supported(best, features));
  EXPECT_NE(simd::kernels_for(best), nullptr);
}

TEST(IsaProbe, QueryIsStable) {
  const simd::CpuFeatures first = simd::query_cpu_features();
  const simd::CpuFeatures second = simd::query_cpu_features();
  EXPECT_EQ(first.avx2, second.avx2);
  EXPECT_EQ(first.fma, second.fma);
  EXPECT_EQ(first.f16c, second.f16c);
  EXPECT_EQ(first.avx512f, second.avx512f);
  EXPECT_EQ(first.os_ymm, second.os_ymm);
  EXPECT_EQ(first.os_zmm, second.os_zmm);
}

TEST(IsaProbe, Avx2TierRequiresF16c) {
  // The AVX2 tier's split converter is vcvtps2ph/vcvtph2ps, so AVX2 + FMA
  // alone does not make the tier executable.
  simd::CpuFeatures features;
  features.avx2 = true;
  features.fma = true;
  features.os_ymm = true;
  EXPECT_FALSE(simd::isa_runtime_supported(IsaLevel::kAvx2, features));
  EXPECT_EQ(simd::best_supported(features), IsaLevel::kScalar);
  features.f16c = true;
  EXPECT_TRUE(simd::isa_runtime_supported(IsaLevel::kAvx2, features));
}

TEST(IsaProbe, ActiveIsaIsAvailable) {
  EXPECT_TRUE(simd::isa_available(simd::active_isa()));
}

TEST(IsaProbe, TableNamesMatchLevels) {
  for (const IsaLevel level : available_levels()) {
    const KernelTable* table = simd::kernels_for(level);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->level, level);
    EXPECT_STREQ(table->name, simd::isa_name(level));
  }
}

TEST(IsaParse, AcceptsKnownNamesOnly) {
  EXPECT_EQ(simd::parse_isa_name("scalar"), IsaLevel::kScalar);
  EXPECT_EQ(simd::parse_isa_name("avx2"), IsaLevel::kAvx2);
  EXPECT_EQ(simd::parse_isa_name("avx512"), IsaLevel::kAvx512);
  EXPECT_FALSE(simd::parse_isa_name("auto").has_value());
  EXPECT_FALSE(simd::parse_isa_name("AVX2").has_value());
  EXPECT_FALSE(simd::parse_isa_name("").has_value());
  EXPECT_FALSE(simd::parse_isa_name("sse2").has_value());
}

TEST(IsaForce, ForcingAnAvailableLevelSticks) {
  const IsaGuard guard;
  for (const IsaLevel level : available_levels()) {
    EXPECT_EQ(simd::force_isa(level), level);
    EXPECT_EQ(simd::active_isa(), level);
    EXPECT_EQ(simd::active_kernels().level, level);
  }
}

TEST(IsaForce, RequestsAboveTheMachineClamp) {
  const IsaGuard guard;
  const IsaLevel actual = simd::force_isa(IsaLevel::kAvx512);
  EXPECT_TRUE(simd::isa_available(actual));
  if (simd::isa_available(IsaLevel::kAvx512)) {
    EXPECT_EQ(actual, IsaLevel::kAvx512);
  } else {
    EXPECT_LT(static_cast<int>(actual), static_cast<int>(IsaLevel::kAvx512));
  }
}

#if EGEMM_OBSERVABILITY_ENABLED
TEST(IsaForce, RecordsLevelGauge) {
  const IsaGuard guard;
  for (const IsaLevel level : available_levels()) {
    simd::force_isa(level);
    EXPECT_EQ(obs::registry().gauge("tcsim.isa.level").value(),
              static_cast<int>(level));
  }
}
#endif

// -- converters --------------------------------------------------------------

/// Every binary16 value widened to binary32 plus its +-1-ulp binary32
/// neighbours (the nearest/truncate decision boundaries), hand-picked
/// boundary patterns (+-0, subnormal edges, the 65504 -> inf midpoint,
/// +-inf, NaN payloads), and a 2^20 LCG random sweep of the full u32
/// space. Deliberately not a multiple of the 8/16-lane widths so the span
/// kernels' scalar tails execute too.
std::vector<float> f32_conversion_corpus() {
  std::vector<std::uint32_t> bits;
  bits.reserve((1u << 16) * 3 + 64 + (1u << 20) + 3);
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    const float widened =
        simd::detail::f16_bits_to_f32_one(static_cast<std::uint16_t>(h));
    const std::uint32_t wb = std::bit_cast<std::uint32_t>(widened);
    bits.push_back(wb);
    bits.push_back(wb + 1);
    bits.push_back(wb - 1);
  }
  for (const std::uint32_t b :
       {0x00000000u, 0x00000001u, 0x007fffffu, 0x00800000u, 0x33000000u,
        0x33000001u, 0x337fffffu, 0x33800000u, 0x38000000u, 0x387fffffu,
        0x38800000u, 0x477fefffu, 0x477ff000u, 0x477ff001u, 0x47800000u,
        0x7f7fffffu, 0x7f800000u, 0x7f800001u, 0x7fc00000u, 0x7fffffffu}) {
    bits.push_back(b);
    bits.push_back(b | 0x80000000u);
  }
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t i = 0; i < (1u << 20); ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    bits.push_back(static_cast<std::uint32_t>(state >> 32));
  }
  bits.push_back(0x3f800000u);  // pad to a non-lane-multiple length
  bits.push_back(0x40000000u);
  bits.push_back(0xc0400000u);
  std::vector<float> out(bits.size());
  std::memcpy(out.data(), bits.data(), bits.size() * sizeof(float));
  return out;
}

/// The scalar core's round trip, the reference every tier must match.
float round_through_core(float x, bool nearest) {
  return simd::detail::f16_bits_to_f32_one(simd::detail::f32_bits_to_f16_bits(
      std::bit_cast<std::uint32_t>(x), nearest));
}

/// Checks every tier's f32_round_through_f16 against the scalar core on
/// the corpus, in both modes.
void expect_round_through_matches_core(const std::string& context) {
  const std::vector<float> in = f32_conversion_corpus();
  std::vector<float> got(in.size());
  for (const IsaLevel level : available_levels()) {
    const KernelTable& table = *simd::kernels_for(level);
    for (const bool nearest : {true, false}) {
      table.f32_round_through_f16(in.data(), got.data(), in.size(), nearest);
      for (std::size_t i = 0; i < in.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(round_through_core(in[i],
                                                                  nearest)))
            << context << table.name << " nearest=" << nearest
            << " input bits 0x" << std::hex
            << std::bit_cast<std::uint32_t>(in[i]);
      }
    }
  }
}

TEST(SimdConverters, RoundThroughF16MatchesComposition) {
  expect_round_through_matches_core("");
}

#if EGEMM_TEST_X86
/// Sets MXCSR for one scope and restores the caller's on exit.
class MxcsrScope {
 public:
  explicit MxcsrScope(unsigned csr) : saved_(_mm_getcsr()) { _mm_setcsr(csr); }
  MxcsrScope(const MxcsrScope&) = delete;
  MxcsrScope& operator=(const MxcsrScope&) = delete;
  ~MxcsrScope() { _mm_setcsr(saved_); }

 private:
  unsigned saved_;
};

TEST(SimdConverters, RoundThroughF16IgnoresTheCallersMxcsr) {
  // The hardware conversion takes its rounding from the instruction's
  // immediate, never flushes its binary16 subnormals, and maps binary32
  // subnormals to +-0 with or without DAZ -- so flush-to-zero,
  // denormals-are-zero and a directed MXCSR rounding mode (what a caller's
  // -ffast-math startup code or a numerics library may leave set) must not
  // move a bit.
  constexpr unsigned kFtzDaz = _MM_FLUSH_ZERO_ON | _MM_DENORMALS_ZERO_ON;
  const unsigned base = _mm_getcsr() & ~static_cast<unsigned>(_MM_ROUND_MASK);
  for (const unsigned csr :
       {base | kFtzDaz, base | kFtzDaz | _MM_ROUND_UP,
        base | kFtzDaz | _MM_ROUND_TOWARD_ZERO}) {
    const MxcsrScope scope(csr);
    expect_round_through_matches_core("MXCSR " + std::to_string(csr) + " ");
  }
}
#endif

TEST(SimdConverters, RoundThroughF16ExhaustiveMatchesScalarCore) {
#ifndef NDEBUG
  GTEST_SKIP() << "2^33 conversions per tier: Release builds only (the "
                  "corpus tests above run everywhere)";
#else
  // All 2^32 binary32 inputs, both modes, every non-scalar tier, in blocks
  // of 2^16 consecutive bit patterns spread over the pool.
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  constexpr std::size_t kBlocks = (std::uint64_t{1} << 32) / kBlock;
  std::vector<const KernelTable*> tables;
  for (const IsaLevel level : available_levels()) {
    if (level != IsaLevel::kScalar) tables.push_back(simd::kernels_for(level));
  }
  if (tables.empty()) GTEST_SKIP() << "no SIMD tier on this machine";
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first_bad{~std::uint64_t{0}};
  util::global_pool().parallel_for(kBlocks, [&](std::size_t b0,
                                                std::size_t b1) {
    std::vector<float> in(kBlock);
    std::vector<float> want(kBlock);
    std::vector<float> got(kBlock);
    for (std::size_t blk = b0; blk < b1; ++blk) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        in[i] = std::bit_cast<float>(
            static_cast<std::uint32_t>(blk * kBlock + i));
      }
      for (const bool nearest : {true, false}) {
        for (std::size_t i = 0; i < kBlock; ++i) {
          want[i] = round_through_core(in[i], nearest);
        }
        for (const KernelTable* table : tables) {
          table->f32_round_through_f16(in.data(), got.data(), kBlock, nearest);
          if (std::memcmp(got.data(), want.data(), kBlock * sizeof(float)) ==
              0) {
            continue;
          }
          for (std::size_t i = 0; i < kBlock; ++i) {
            if (std::bit_cast<std::uint32_t>(got[i]) !=
                std::bit_cast<std::uint32_t>(want[i])) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
              const std::uint64_t bits = blk * kBlock + i;
              std::uint64_t seen = first_bad.load(std::memory_order_relaxed);
              while (bits < seen &&
                     !first_bad.compare_exchange_weak(seen, bits)) {
              }
            }
          }
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u)
      << "first mismatching input bits 0x" << std::hex << first_bad.load();
#endif
}

TEST(SimdConverters, EveryTailLengthMatches) {
  // n in [0, 40] covers every remainder class of both lane widths with
  // main-loop iterations before the tail.
  std::vector<float> in(41);
  std::uint64_t state = 42;
  for (auto& x : in) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    x = static_cast<float>(static_cast<std::int64_t>(state >> 40)) * 0x1p-10f;
  }
  for (const IsaLevel level : available_levels()) {
    const KernelTable& table = *simd::kernels_for(level);
    for (std::size_t n = 0; n <= in.size(); ++n) {
      // A sentinel past the end: a masked tail must neither skip a lane
      // nor store beyond n.
      for (const bool nearest : {true, false}) {
        std::vector<float> out(n + 1, -7.0f);
        table.f32_round_through_f16(in.data(), out.data(), n, nearest);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                    std::bit_cast<std::uint32_t>(
                        round_through_core(in[i], nearest)))
              << table.name << " round trip n=" << n << " i=" << i;
        }
        ASSERT_EQ(out[n], -7.0f) << table.name << " wrote past n=" << n;
      }
    }
  }
}

// -- MMA kernels -------------------------------------------------------------

/// Random half-valued floats (what the packed planes hold after a split):
/// binary32 values exactly representable in binary16, in a range where no
/// product or pair sum overflows.
std::vector<float> half_valued(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
  std::vector<float> out(n);
  for (auto& x : out) {
    x = simd::detail::f16_bits_to_f32_one(simd::detail::f32_bits_to_f16_bits(
        std::bit_cast<std::uint32_t>(dist(rng)), true));
  }
  return out;
}

std::vector<float> random_acc(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
  std::vector<float> out(n);
  for (auto& x : out) x = dist(rng);
  return out;
}

// Odd k, k = 1, lane-width edges, and beyond-one-slab extents.
const int kMmaKs[] = {1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 63, 100, 513};

TEST(SimdMma, BlockKernelMatchesScalarBitwise) {
  const KernelTable& scalar = *simd::kernels_for(IsaLevel::kScalar);
  for (const IsaLevel level : available_levels()) {
    if (level == IsaLevel::kScalar) continue;
    const KernelTable& table = *simd::kernels_for(level);
    for (const int k : kMmaKs) {
      // lda == k (packed planes) and an over-allocated stride.
      for (const std::size_t lda :
           {static_cast<std::size_t>(k), static_cast<std::size_t>(k) + 5}) {
        const std::vector<float> a =
            half_valued(kMmaTile * lda, 10 + static_cast<std::uint32_t>(k));
        const std::vector<float> b = half_valued(
            static_cast<std::size_t>(k) * kMmaTile,
            20 + static_cast<std::uint32_t>(k));
        const std::vector<float> acc0 =
            random_acc(kMmaTile * kMmaTile, 30 + static_cast<std::uint32_t>(k));
        std::vector<float> want = acc0;
        std::vector<float> got = acc0;
        scalar.mma_block_packed(want.data(), a.data(), lda, b.data(), k);
        table.mma_block_packed(got.data(), a.data(), lda, b.data(), k);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << table.name << " k=" << k << " lda=" << lda;
      }
    }
  }
}

/// The documented recipe semantics, written as the plain loop nest over
/// the SCALAR block kernel on ROW-MAJOR A blocks (leading dimension
/// `lda`) -- the oracle every dispatched recipe variant (and slab choice)
/// must reproduce bit for bit on the k-major copies of the same blocks.
void reference_recipe(float* acc, const float* const* a_blocks,
                      const float* const* b_blocks, int ncombos,
                      std::size_t lda, int k, int k_slab, bool fused) {
  const KernelTable& scalar = *simd::kernels_for(IsaLevel::kScalar);
  auto slab = [&](int c, int k0) {
    const int kt = k - k0 < k_slab ? k - k0 : k_slab;
    scalar.mma_block_packed(
        acc, a_blocks[c] + k0, lda,
        b_blocks[c] + static_cast<std::size_t>(k0) * kMmaTile, kt);
  };
  if (fused) {
    for (int k0 = 0; k0 < k; k0 += k_slab) {
      for (int c = 0; c < ncombos; ++c) slab(c, k0);
    }
  } else {
    for (int c = 0; c < ncombos; ++c) {
      for (int k0 = 0; k0 < k; k0 += k_slab) slab(c, k0);
    }
  }
}

/// The recipe's A layout: element (r, kk) of a row-major kMmaTile x k
/// block moved to [kk * kMmaTile + r].
std::vector<float> k_major(const std::vector<float>& row_major, int k) {
  const auto kk_count = static_cast<std::size_t>(k);
  std::vector<float> out(row_major.size());
  for (std::size_t r = 0; r < kMmaTile; ++r) {
    for (std::size_t kk = 0; kk < kk_count; ++kk) {
      out[kk * kMmaTile + r] = row_major[r * kk_count + kk];
    }
  }
  return out;
}

/// `ncombos` half-valued A/B block pairs for one recipe call: A as the
/// row-major blocks the reference reads and their k-major copies the
/// recipe reads, B once (k-major in both).
struct RecipeBlocks {
  std::vector<std::vector<float>> a_rows, a_kmajor, b;
  std::vector<const float*> rows_ptr, kmajor_ptr, b_ptr;

  RecipeBlocks(int ncombos, int k, std::uint32_t seed) {
    const auto kk_count = static_cast<std::size_t>(k);
    for (int c = 0; c < ncombos; ++c) {
      const auto offset = static_cast<std::uint32_t>(c);
      a_rows.push_back(half_valued(kMmaTile * kk_count, seed + offset));
      a_kmajor.push_back(k_major(a_rows.back(), k));
      b.push_back(half_valued(kk_count * kMmaTile, seed + 100 + offset));
    }
    for (int c = 0; c < ncombos; ++c) {
      const auto i = static_cast<std::size_t>(c);
      rows_ptr.push_back(a_rows[i].data());
      kmajor_ptr.push_back(a_kmajor[i].data());
      b_ptr.push_back(b[i].data());
    }
  }
};

TEST(SimdMma, TileRecipeMatchesBlockKernelLoop) {
  // Same values, new layout, same bits: the recipe over k-major A blocks
  // reproduces the row-major block-kernel loop in every tier.
  constexpr int kNcombos = 4;
  for (const int k : {1, 16, 17, 48, 100, 513}) {
    const RecipeBlocks blocks(kNcombos, k,
                              100 + static_cast<std::uint32_t>(k));
    const std::vector<float> acc0 =
        random_acc(kMmaTile * kMmaTile, 300 + static_cast<std::uint32_t>(k));
    for (const bool fused : {true, false}) {
      const int k_slab = 16;  // the packed engine's fused (semantic) slab
      std::vector<float> want = acc0;
      reference_recipe(want.data(), blocks.rows_ptr.data(),
                       blocks.b_ptr.data(), kNcombos,
                       static_cast<std::size_t>(k), k, k_slab, fused);
      for (const IsaLevel level : available_levels()) {
        const KernelTable& table = *simd::kernels_for(level);
        std::vector<float> got = acc0;
        table.mma_tile_recipe(got.data(), blocks.kmajor_ptr.data(),
                              blocks.b_ptr.data(), kNcombos, k, k_slab,
                              fused);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << table.name << " k=" << k << " fused=" << fused;
      }
    }
  }
}

TEST(SimdMma, SeparateOrderIsSlabLengthInvariant) {
  // Any EVEN slab (or one >= k) must give bit-identical results in the
  // !fused order: pair boundaries stay on even k offsets, so the blocking
  // never re-pairs products. This is what lets the packed engine pick its
  // slab for locality alone.
  constexpr int kNcombos = 3;
  const int k = 200;
  const RecipeBlocks blocks(kNcombos, k, 400);
  const std::vector<float> acc0 = random_acc(kMmaTile * kMmaTile, 600);
  std::vector<float> want = acc0;
  reference_recipe(want.data(), blocks.rows_ptr.data(), blocks.b_ptr.data(),
                   kNcombos, static_cast<std::size_t>(k), k, /*k_slab=*/16,
                   /*fused=*/false);
  for (const IsaLevel level : available_levels()) {
    const KernelTable& table = *simd::kernels_for(level);
    for (const int k_slab : {2, 16, 34, 128, 200, 512, 1001}) {
      std::vector<float> got = acc0;
      table.mma_tile_recipe(got.data(), blocks.kmajor_ptr.data(),
                            blocks.b_ptr.data(), kNcombos, k, k_slab, false);
      ASSERT_EQ(
          std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
          0)
          << table.name << " k_slab=" << k_slab;
    }
  }
}

// -- whole-pipeline pinning --------------------------------------------------

bool bitwise_equal(const gemm::Matrix& x, const gemm::Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.data().empty() ||
          std::memcmp(x.data().data(), y.data().data(),
                      x.data().size() * sizeof(float)) == 0);
}

/// Alg. 1's four round-split products in `order`, planned on the default
/// context for the operands' shape: round-2term fused, or cuBLAS-TC-
/// Emulation's separate passes.
std::shared_ptr<const gemm::GemmPlan> alg1_plan(const gemm::Matrix& a,
                                                const gemm::Matrix& b,
                                                gemm::ComboOrder order) {
  gemm::GemmContext& ctx = gemm::default_context();
  return order == gemm::ComboOrder::kFusedPerTile
             ? ctx.plan_scheme(core::SchemeId::kRound2, a.rows(), b.cols(),
                               a.cols())
             : ctx.plan(gemm::Backend::kCublasTcEmulation, a.rows(),
                        b.cols(), a.cols());
}

gemm::Matrix run_packed(const gemm::GemmPlan& plan, const gemm::Matrix& a,
                        const gemm::Matrix& b, const gemm::Matrix* c) {
  gemm::Matrix d;
  plan.execute(gemm::default_context(), a, b, c, d);
  return d;
}

TEST(SimdDispatchEndToEnd, PackedEngineMatchesReferenceUnderEveryIsa) {
  const IsaGuard guard;
  const gemm::Matrix a = gemm::random_matrix(33, 47, -1, 1, 7001);
  const gemm::Matrix b = gemm::random_matrix(47, 65, -1, 1, 7002);
  const gemm::Matrix c = gemm::random_matrix(33, 65, -1, 1, 7003);
  for (const IsaLevel level : available_levels()) {
    simd::force_isa(level);
    for (const auto order : {gemm::ComboOrder::kFusedPerTile,
                             gemm::ComboOrder::kSeparatePasses}) {
      const auto plan = alg1_plan(a, b, order);
      const gemm::Matrix packed = run_packed(*plan, a, b, &c);
      const gemm::Matrix reference =
          verify::reference_execute(*plan, a, b, &c);
      EXPECT_TRUE(bitwise_equal(packed, reference))
          << simd::isa_name(level) << " order="
          << (order == gemm::ComboOrder::kFusedPerTile ? "fused" : "separate");
    }
  }
}

TEST(SimdDispatchEndToEnd, EveryIsaProducesTheSameGemmBits) {
  // Stronger than packed == oracle per level: the RESULT itself must not
  // depend on the level (the oracle never dispatches its inner dot, so this
  // pins the dispatched converters + MMA jointly).
  const IsaGuard guard;
  const gemm::Matrix a = gemm::random_matrix(40, 100, -1, 1, 8001);
  const gemm::Matrix b = gemm::random_matrix(100, 24, -1, 1, 8002);
  simd::force_isa(IsaLevel::kScalar);
  const gemm::Matrix want = run_packed(
      *alg1_plan(a, b, gemm::ComboOrder::kFusedPerTile), a, b, nullptr);
  for (const IsaLevel level : available_levels()) {
    simd::force_isa(level);
    const gemm::Matrix got = run_packed(
        *alg1_plan(a, b, gemm::ComboOrder::kFusedPerTile), a, b, nullptr);
    EXPECT_TRUE(bitwise_equal(got, want)) << simd::isa_name(level);
  }
}

}  // namespace
}  // namespace egemm
