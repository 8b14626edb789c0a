// Tests for the unified backend registry (gemm/gemm_api.hpp), and the
// release-build rejection of chained grouped batches.
#include "gemm/gemm_api.hpp"

#include <string>

#include <gtest/gtest.h>

#include "gemm/plan.hpp"

namespace egemm::gemm {
namespace {

TEST(GemmApi, BackendNamesMatchTable5) {
  EXPECT_STREQ(backend_name(Backend::kEgemmTC), "EGEMM-TC");
  EXPECT_STREQ(backend_name(Backend::kCublasFp32), "cuBLAS-CUDA-FP32");
  EXPECT_STREQ(backend_name(Backend::kCublasTcHalf), "cuBLAS-TC-Half");
  EXPECT_STREQ(backend_name(Backend::kCublasTcEmulation),
               "cuBLAS-TC-Emulation");
  EXPECT_STREQ(backend_name(Backend::kSdkFp32), "SDK-CUDA-FP32");
  EXPECT_STREQ(backend_name(Backend::kMarkidis), "Markidis");
  EXPECT_STREQ(backend_name(Backend::kDekker), "Dekker");
}

TEST(GemmApi, AllBackendsEnumerated) {
  const auto backends = all_backends();
  EXPECT_EQ(backends.size(), 7u);
}

class BackendDispatchTest : public ::testing::TestWithParam<Backend> {};

TEST_P(BackendDispatchTest, FunctionalResultIsCloseToReference) {
  const Backend backend = GetParam();
  const Matrix a = random_matrix(48, 32, -1, 1, 51);
  const Matrix b = random_matrix(32, 48, -1, 1, 52);
  const Matrix d = gemm_ex(backend, a, b, nullptr, {});
  const MatrixD ref = gemm_reference(a, b, nullptr);
  ASSERT_EQ(d.rows(), 48u);
  ASSERT_EQ(d.cols(), 48u);
  // Even the half backend stays within coarse absolute error at k=32.
  EXPECT_LT(max_abs_error(ref, d), 0.1) << backend_name(backend);
}

TEST_P(BackendDispatchTest, TimingIsPositiveAndFinite) {
  const Backend backend = GetParam();
  const KernelTiming t =
      time_gemm(backend, 2048, 2048, 2048, tcsim::tesla_t4());
  EXPECT_GT(t.seconds, 0.0) << backend_name(backend);
  EXPECT_GT(t.tflops, 0.0);
  EXPECT_LT(t.tflops, 70.0);  // nothing beats the Tensor Core peak
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendDispatchTest,
    ::testing::ValuesIn(all_backends()),
    [](const ::testing::TestParamInfo<Backend>& backend) {
      std::string name = backend_name(backend.param);
      for (char& c : name) {
        if (c == '-' || c == ' ') c = '_';
      }
      return name;
    });

TEST(GemmApi, DekkerTimingModelsSixteenInstructionSchedule) {
  // The Dekker schedule carries 4x the Tensor Core work of Alg. 1.
  const tcsim::GpuSpec spec = tcsim::tesla_t4();
  const double alg1 = time_gemm(Backend::kEgemmTC, 4096, 4096, 4096, spec).seconds;
  const double dekker = time_gemm(Backend::kDekker, 4096, 4096, 4096, spec).seconds;
  EXPECT_GT(dekker, 3.0 * alg1);
  EXPECT_LT(dekker, 5.0 * alg1);
}

// -- chained grouped items -----------------------------------------------------

// A grouped call preps and writes all its items concurrently, so a batch
// in which one item's D is another item's A, B, C or D cannot mean what
// the loop of single calls means; both grouped entry points abort on it
// before anything executes, release builds included. The children run
// with a live thread pool, hence the threadsafe death-test style.
constexpr std::size_t kChainDim = 128;  // a pool-dispatched shape

TEST(GroupedChainDeathTest, GemmGroupedRejectsChainsOnCallerPointers) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Matrix a = random_matrix(kChainDim, kChainDim, -1, 1, 61);
  const Matrix b = random_matrix(kChainDim, kChainDim, -1, 1, 62);
  Matrix d0(kChainDim, kChainDim);
  Matrix d1;
  // Item 1 reads item 0's output through trans_a: the check runs on the
  // caller's pointers, whatever orientation they are read in.
  GroupedGemmItem items[] = {
      {&a, &b, nullptr, &d0, {}},
      {&d0, &b, nullptr, &d1, {.trans_a = Transpose::kTranspose}}};
  GemmContext& ctx = default_context();
  EXPECT_DEATH(gemm_grouped(ctx, Backend::kEgemmTC, items), "binary_search");
  items[1] = {&a, &b, &d0, &d1, {.beta = 1.0f}};  // D0 as item 1's C
  EXPECT_DEATH(gemm_grouped(ctx, Backend::kEgemmTC, items), "binary_search");
  items[1] = {&a, &b, nullptr, &d0, {}};  // two items write D0
  EXPECT_DEATH(gemm_grouped(ctx, Backend::kEgemmTC, items), "adjacent_find");
}

TEST(GroupedChainDeathTest, GemmGroupedRejectsInPlaceOutputs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // With alpha != 1 the kernel runs without C into a zeroed D and the
  // epilogue reads C afterwards, so C == D would silently read A x B
  // back as C. One item is enough: there is no chain, only the alias.
  const Matrix a = random_matrix(kChainDim, kChainDim, -1, 1, 67);
  const Matrix b = random_matrix(kChainDim, kChainDim, -1, 1, 68);
  Matrix cd(kChainDim, kChainDim);
  const GroupedGemmItem in_place{
      &a, &b, &cd, &cd, {.alpha = 2.0f, .beta = 1.0f}};
  EXPECT_DEATH(
      gemm_grouped(default_context(), Backend::kEgemmTC, {&in_place, 1}),
      "item.d != item.c");
}

TEST(GroupedChainDeathTest, ExecuteGroupedRejectsChains) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  GemmContext ctx;
  const auto plan = ctx.plan(Backend::kEgemmTC, kChainDim, kChainDim,
                             kChainDim);
  const Matrix a = random_matrix(kChainDim, kChainDim, -1, 1, 63);
  const Matrix b = random_matrix(kChainDim, kChainDim, -1, 1, 64);
  Matrix d0(kChainDim, kChainDim);
  Matrix d1(kChainDim, kChainDim);
  const GroupedGemm a_chain[] = {{plan, &a, &b, nullptr, &d0},
                                 {plan, &d0, &b, nullptr, &d1}};
  EXPECT_DEATH(ctx.execute_grouped(a_chain), "binary_search");
  const GroupedGemm b_chain[] = {{plan, &a, &d1, nullptr, &d0},
                                 {plan, &a, &b, nullptr, &d1}};
  EXPECT_DEATH(ctx.execute_grouped(b_chain), "binary_search");
  const GroupedGemm shared_d[] = {{plan, &a, &b, nullptr, &d0},
                                  {plan, &a, &b, nullptr, &d0}};
  EXPECT_DEATH(ctx.execute_grouped(shared_d), "adjacent_find");
}

TEST(GroupedChainDeathTest, SharedInputsStayLegal) {
  // The apps share B across items; only outputs must stay apart.
  const Matrix a = random_matrix(kChainDim, kChainDim, -1, 1, 65);
  const Matrix b = random_matrix(kChainDim, kChainDim, -1, 1, 66);
  Matrix d0;
  Matrix d1;
  const GroupedGemmItem items[] = {{&a, &b, nullptr, &d0, {}},
                                   {&a, &b, nullptr, &d1, {}}};
  gemm_grouped(default_context(), Backend::kEgemmTC, items);
  const Matrix expected = gemm_ex(Backend::kEgemmTC, a, b, nullptr, {});
  ASSERT_EQ(d0.size(), expected.size());
  ASSERT_EQ(d1.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(d0.data()[i], expected.data()[i]) << i;
    ASSERT_EQ(d1.data()[i], expected.data()[i]) << i;
  }
}

}  // namespace
}  // namespace egemm::gemm
