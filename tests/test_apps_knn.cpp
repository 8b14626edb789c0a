// Tests for GEMM-based kNN (apps/knn.hpp).
#include "apps/knn.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/dataset.hpp"
#include "core/scheme.hpp"

namespace egemm::apps {
namespace {

TEST(Knn, SelfQueryFindsItselfFirst) {
  const PointCloud cloud = uniform_cloud(128, 16, -1.0f, 1.0f, 1);
  KnnOptions opts;
  opts.k = 1;
  const KnnResult result = knn_search(cloud.points, cloud.points, opts);
  for (std::size_t i = 0; i < cloud.points.rows(); ++i) {
    EXPECT_EQ(result.indices.at(i, 0), static_cast<std::int32_t>(i));
    EXPECT_NEAR(result.distances.at(i, 0), 0.0f, 1e-4f);
  }
}

class KnnBackendTest : public ::testing::TestWithParam<gemm::Backend> {};

TEST_P(KnnBackendTest, AgreesWithBruteForce) {
  const PointCloud refs = uniform_cloud(256, 24, -1.0f, 1.0f, 2);
  const PointCloud queries = uniform_cloud(64, 24, -1.0f, 1.0f, 3);
  KnnOptions opts;
  opts.k = 8;
  opts.backend = GetParam();
  const KnnResult fast = knn_search(queries.points, refs.points, opts);
  const KnnResult oracle = knn_bruteforce(queries.points, refs.points, 8);
  // Extended-precision and fp32 backends must recover virtually all
  // neighbors; ties at equal distance may swap, so demand >= 97%.
  EXPECT_GE(knn_agreement(fast, oracle), 0.97)
      << gemm::backend_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Backends, KnnBackendTest,
                         ::testing::Values(gemm::Backend::kEgemmTC,
                                           gemm::Backend::kCublasFp32,
                                           gemm::Backend::kCublasTcEmulation));

TEST(Knn, HalfBackendDegradesNeighborQuality) {
  // The motivation for extended precision (§1): half-precision distance
  // matrices mis-rank neighbors more often.
  const PointCloud refs = uniform_cloud(512, 64, -1.0f, 1.0f, 4);
  const PointCloud queries = uniform_cloud(128, 64, -1.0f, 1.0f, 5);
  const KnnResult oracle = knn_bruteforce(queries.points, refs.points, 8);
  KnnOptions emu_opts;
  emu_opts.k = 8;
  KnnOptions half_opts = emu_opts;
  half_opts.backend = gemm::Backend::kCublasTcHalf;
  const double emu_agreement =
      knn_agreement(knn_search(queries.points, refs.points, emu_opts), oracle);
  const double half_agreement = knn_agreement(
      knn_search(queries.points, refs.points, half_opts), oracle);
  EXPECT_GE(emu_agreement, half_agreement);
  EXPECT_GE(emu_agreement, 0.97);
}

TEST(Knn, DistancesAreSortedAscending) {
  const PointCloud refs = uniform_cloud(200, 8, -1.0f, 1.0f, 6);
  const PointCloud queries = uniform_cloud(50, 8, -1.0f, 1.0f, 7);
  KnnOptions opts;
  opts.k = 10;
  const KnnResult result = knn_search(queries.points, refs.points, opts);
  for (std::size_t i = 0; i < queries.points.rows(); ++i) {
    for (int j = 1; j < opts.k; ++j) {
      EXPECT_LE(result.distances.at(i, static_cast<std::size_t>(j - 1)),
                result.distances.at(i, static_cast<std::size_t>(j)));
    }
  }
}

TEST(Knn, AgreementMetric) {
  KnnResult a, b;
  a.indices = gemm::BasicMatrix<std::int32_t>(2, 2);
  b.indices = gemm::BasicMatrix<std::int32_t>(2, 2);
  a.indices.at(0, 0) = 1;
  b.indices.at(0, 0) = 1;
  a.indices.at(1, 1) = 5;
  b.indices.at(1, 1) = 6;
  EXPECT_DOUBLE_EQ(knn_agreement(a, b), 0.75);
}

TEST(Knn, KEqualsReferenceCount) {
  const PointCloud refs = uniform_cloud(8, 4, -1.0f, 1.0f, 8);
  const PointCloud queries = uniform_cloud(3, 4, -1.0f, 1.0f, 9);
  KnnOptions opts;
  opts.k = 8;  // every reference is a neighbor
  const KnnResult result = knn_search(queries.points, refs.points, opts);
  for (std::size_t i = 0; i < 3; ++i) {
    std::set<std::int32_t> seen;
    for (int j = 0; j < 8; ++j) {
      seen.insert(result.indices.at(i, static_cast<std::size_t>(j)));
    }
    EXPECT_EQ(seen.size(), 8u);  // a permutation of all references
  }
}

TEST(Knn, EqualDistancesRankTheLowerReferenceFirst) {
  // Every base point appears three times (rows r, r + 40, r + 80), so each
  // query sees exact three-way distance ties: the streaming top-k must break
  // them by index exactly as the oracle's partial_sort comparator does.
  const PointCloud base = uniform_cloud(40, 6, -1.0f, 1.0f, 10);
  const PointCloud queries = uniform_cloud(16, 6, -1.0f, 1.0f, 11);
  gemm::Matrix refs(120, 6);
  for (std::size_t r = 0; r < refs.rows(); ++r) {
    std::copy(base.points.row(r % 40), base.points.row(r % 40) + 6,
              refs.row(r));
  }
  for (const int k : {1, 8, 120}) {
    KnnOptions opts;
    opts.k = k;
    const KnnResult fast = knn_search(queries.points, refs, opts);
    const KnnResult oracle = knn_bruteforce(queries.points, refs, k);
    EXPECT_EQ(knn_agreement(fast, oracle), 1.0) << "k = " << k;
    for (std::size_t i = 0; i < queries.points.rows(); ++i) {
      const auto ku = static_cast<std::size_t>(k);
      for (std::size_t j = 1; j < ku; ++j) {
        const float prev = fast.distances.at(i, j - 1);
        const float cur = fast.distances.at(i, j);
        ASSERT_LE(prev, cur) << "query " << i << " rank " << j;
        if (prev == cur) {
          EXPECT_LT(fast.indices.at(i, j - 1), fast.indices.at(i, j))
              << "query " << i << " rank " << j;
        }
      }
      // The nearest point's three copies fill the first ranks in index
      // order, at exactly equal distances.
      const std::int32_t first = fast.indices.at(i, 0);
      EXPECT_LT(first, 40);
      for (std::size_t copy = 1; copy < std::min<std::size_t>(3, ku); ++copy) {
        EXPECT_EQ(fast.indices.at(i, copy),
                  first + static_cast<std::int32_t>(40 * copy));
        EXPECT_EQ(fast.distances.at(i, copy), fast.distances.at(i, 0));
      }
    }
  }
}

bool same_bits(const KnnResult& a, const KnnResult& b) {
  return a.indices.rows() == b.indices.rows() &&
         a.indices.cols() == b.indices.cols() &&
         std::memcmp(a.indices.data().data(), b.indices.data().data(),
                     a.indices.data().size_bytes()) == 0 &&
         std::memcmp(a.distances.data().data(), b.distances.data().data(),
                     a.distances.data().size_bytes()) == 0;
}

struct KnnCase {
  PointCloud queries, refs;
  int k;
  KnnResult search() const {
    KnnOptions opts;
    opts.k = k;
    return knn_search(queries.points, refs.points, opts);
  }
};

// Shapes that grow, shrink and grow again in both the query panels (70 and
// 150 queries run full 64-row panels and a tail) and the references.
std::vector<KnnCase> knn_cases() {
  std::vector<KnnCase> cases;
  cases.push_back({uniform_cloud(70, 9, -1.0f, 1.0f, 51),
                   uniform_cloud(260, 9, -1.0f, 1.0f, 52), 5});
  cases.push_back({uniform_cloud(20, 17, -1.0f, 1.0f, 53),
                   uniform_cloud(64, 17, -1.0f, 1.0f, 54), 3});
  cases.push_back({uniform_cloud(150, 12, -1.0f, 1.0f, 55),
                   uniform_cloud(333, 12, -1.0f, 1.0f, 56), 7});
  return cases;
}

TEST(Knn, PanelBufferGivesTheFreshThreadBits) {
  // Back to back on this thread, each search streams its query panels
  // through a cross buffer and packs its references into a kept pack whose
  // storage comes back warm from the context's pool, as the previous
  // search left it (or regrown); a fresh thread's search must give the
  // same bits.
  const std::vector<KnnCase> cases = knn_cases();
  for (int round = 0; round < 2; ++round) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const KnnResult reused = cases[c].search();
      KnnResult fresh;
      std::thread([&] { fresh = cases[c].search(); }).join();
      EXPECT_TRUE(same_bits(reused, fresh))
          << "round " << round << ", case " << c;
    }
  }
}

TEST(Knn, ConcurrentCallersEachGetTheSingleThreadedResult) {
  // Two callers race through different shapes at once; each streams its
  // own panels and kept reference pack, and each pool call goes to one
  // caller while the other's runs inline.
  const std::vector<KnnCase> cases = knn_cases();
  std::vector<KnnResult> expected;
  for (const KnnCase& c : cases) expected.push_back(c.search());
  bool same[2] = {true, true};
  auto caller = [&](std::size_t t) {
    for (int round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const std::size_t c = (i + t) % cases.size();
        same[t] = same[t] && same_bits(cases[c].search(), expected[c]);
      }
    }
  };
  std::thread first(caller, 0);
  std::thread second(caller, 1);
  first.join();
  second.join();
  EXPECT_TRUE(same[0]);
  EXPECT_TRUE(same[1]);
}

TEST(Knn, PrecisionTargetRunsTheResolvedRungOrThrows) {
  const PointCloud queries = uniform_cloud(40, 10, -1.0f, 1.0f, 41);
  const PointCloud refs = uniform_cloud(90, 10, -2.0f, 2.0f, 42);
  KnnOptions opts;
  opts.k = 4;
  core::AccuracyContract contract;
  contract.a_scale = gemm::max_abs(queries.points);
  contract.b_scale = gemm::max_abs(refs.points);
  contract.max_abs_error = opts.precision_target = 1e-4;
  const core::ContractResolution feasible =
      core::resolve_contract(contract, queries.points.cols());
  ASSERT_TRUE(feasible.feasible);
  EXPECT_STREQ(knn_search(queries.points, refs.points, opts).scheme,
               core::scheme_name(feasible.scheme));

  contract.max_abs_error = opts.precision_target = 1e-30;
  const core::ContractResolution infeasible =
      core::resolve_contract(contract, queries.points.cols());
  ASSERT_FALSE(infeasible.feasible);
  try {
    static_cast<void>(knn_search(queries.points, refs.points, opts));
    FAIL() << "an infeasible target must throw";
  } catch (const std::invalid_argument& error) {
    const std::string tightest =
        std::string("tightest rung (") +
        core::scheme_name(infeasible.tightest) + ")";
    EXPECT_NE(std::string(error.what()).find(tightest), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace egemm::apps
