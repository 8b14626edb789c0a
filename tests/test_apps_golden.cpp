// Golden bit pin of the three GEMM-based apps (DESIGN.md §18): kMeans, kNN
// and PCA on fixed small uniform clouds (no libm in the inputs), with every
// output pinned to the exact bits -- arrays by an FNV-1a digest of their
// bytes, scalars as hexfloats.
//
// The apps distribute only independent per-element work over the pool and
// keep each element's operation sequence fixed, and each app's one GEMM
// per step preps and computes bit-identically however the pool chunks it,
// so the outputs must not depend on the pool size or the chunking. A
// golden mismatch means an app's numerics changed; if that is intentional,
// re-capture with the values printed in the failure message.
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/dataset.hpp"
#include "apps/kmeans.hpp"
#include "apps/knn.hpp"
#include "apps/pca.hpp"
#include "util/thread_pool.hpp"

namespace egemm::apps {
namespace {

/// FNV-1a over the object representation of `values`.
template <class T>
std::uint64_t digest(std::span<const T> values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

template <class T>
std::uint64_t digest(const std::vector<T>& values) {
  return digest(std::span<const T>(values));
}

std::string hex(std::uint64_t h) {
  char text[32];
  std::snprintf(text, sizeof(text), "0x%016llxull",
                static_cast<unsigned long long>(h));
  return text;
}

std::string hexfloat(double x) {
  char text[40];
  std::snprintf(text, sizeof(text), "%a", x);
  return text;
}

/// Runs `app` as the body of a one-chunk parallel_for: every pool call it
/// makes is then nested and runs its whole range inline on one thread.
template <class App>
auto run_nested(const App& app) {
  decltype(app()) out;
  util::global_pool().parallel_for(1, [&](std::size_t, std::size_t) {
    out = app();
  });
  return out;
}

// -- kMeans ------------------------------------------------------------------

struct KMeansDigest {
  std::uint64_t centroids, assignment;
  double inertia;
  int iterations;
  bool operator==(const KMeansDigest&) const = default;
};

KMeansDigest digest_of(const KMeansResult& r) {
  return {digest(r.centroids.data()), digest(r.assignment), r.inertia,
          r.iterations};
}

std::string describe(const KMeansDigest& d) {
  return "{" + hex(d.centroids) + ", " + hex(d.assignment) + ", " +
         hexfloat(d.inertia) + ", " + std::to_string(d.iterations) + "}";
}

// Captured before the apps' non-GEMM phases moved onto the pool.
const KMeansDigest kKMeansGolden = {0x91091a4b8ba5ac09ull,
                                    0x9a590c6610073ed6ull, 0x1.b13e99ffcp+12,
                                    12};

KMeansResult run_kmeans() {
  static const PointCloud cloud = uniform_cloud(1000, 24, -1.0f, 1.0f, 11);
  KMeansOptions opts;
  opts.clusters = 8;
  opts.max_iterations = 12;
  opts.seed = 5;
  return kmeans(cloud.points, opts);
}

TEST(AppsGolden, KMeansMatchesToTheBit) {
  const KMeansDigest got = digest_of(run_kmeans());
  EXPECT_EQ(got, kKMeansGolden) << "re-capture: " << describe(got);
  const KMeansDigest nested = digest_of(run_nested(run_kmeans));
  EXPECT_EQ(nested, got) << "nested: " << describe(nested);
}

// Captured at dim 40, not a multiple of 16 or 32, before the apps' host
// phases were reworked: any blocked pass over the columns ends in a tail.
const KMeansDigest kKMeansDim40Golden = {0x73f9d94a34364413ull,
                                         0xbd41d792908537d7ull,
                                         0x1.5e0206c64p+13, 10};

KMeansResult run_kmeans_dim40() {
  static const PointCloud cloud = uniform_cloud(900, 40, -1.0f, 1.0f, 15);
  KMeansOptions opts;
  opts.clusters = 6;
  opts.max_iterations = 10;
  opts.seed = 9;
  return kmeans(cloud.points, opts);
}

TEST(AppsGolden, KMeansDim40MatchesToTheBit) {
  const KMeansDigest got = digest_of(run_kmeans_dim40());
  EXPECT_EQ(got, kKMeansDim40Golden) << "re-capture: " << describe(got);
  const KMeansDigest nested = digest_of(run_nested(run_kmeans_dim40));
  EXPECT_EQ(nested, got) << "nested: " << describe(nested);
}

// -- kNN ---------------------------------------------------------------------

struct KnnDigest {
  std::uint64_t indices, distances;
  bool operator==(const KnnDigest&) const = default;
};

KnnDigest digest_of(const KnnResult& r) {
  return {digest(r.indices.data()), digest(r.distances.data())};
}

std::string describe(const KnnDigest& d) {
  return "{" + hex(d.indices) + ", " + hex(d.distances) + "}";
}

const KnnDigest kKnnGolden = {0x110d89057d6d406cull, 0xab8dbec0a6bfccfdull};

KnnResult run_knn() {
  static const PointCloud queries = uniform_cloud(96, 20, -1.0f, 1.0f, 12);
  static const PointCloud refs = uniform_cloud(300, 20, -1.0f, 1.0f, 13);
  KnnOptions opts;
  opts.k = 8;
  return knn_search(queries.points, refs.points, opts);
}

TEST(AppsGolden, KnnMatchesToTheBit) {
  const KnnDigest got = digest_of(run_knn());
  EXPECT_EQ(got, kKnnGolden) << "re-capture: " << describe(got);
  const KnnDigest nested = digest_of(run_nested(run_knn));
  EXPECT_EQ(nested, got) << "nested: " << describe(nested);
}

// Captured before kNN kept its cross matrix per calling thread: one thread
// searches shapes that grow, shrink and grow again, so a kept buffer is
// reused larger than needed and then regrown.
struct KnnCall {
  std::size_t queries, refs, dim;
  int k;
};
constexpr KnnCall kKnnSequence[] = {
    {48, 150, 12, 4}, {96, 300, 20, 8}, {32, 100, 8, 3}, {128, 420, 28, 10}};
const KnnDigest kKnnSequenceGolden[] = {
    {0x9eb2d1398337d513ull, 0x8d4d96a4b2585cbbull},
    {0x7b3dfd4b95e47af8ull, 0xb54fb8b251906983ull},
    {0x68055ac7b638853bull, 0x650a3f80e049d10bull},
    {0xd462f26e7e9efc70ull, 0xbff879e7b59fefabull}};

std::vector<KnnDigest> run_knn_sequence() {
  std::vector<KnnDigest> out;
  std::uint64_t seed = 21;
  for (const KnnCall& call : kKnnSequence) {
    const PointCloud queries =
        uniform_cloud(call.queries, call.dim, -1.0f, 1.0f, seed++);
    const PointCloud refs =
        uniform_cloud(call.refs, call.dim, -1.0f, 1.0f, seed++);
    KnnOptions opts;
    opts.k = call.k;
    out.push_back(digest_of(knn_search(queries.points, refs.points, opts)));
  }
  return out;
}

TEST(AppsGolden, KnnShapeSequenceOnOneThreadMatchesToTheBit) {
  const std::vector<KnnDigest> got = run_knn_sequence();
  ASSERT_EQ(got.size(), std::size(kKnnSequenceGolden));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kKnnSequenceGolden[i])
        << "call " << i << ", re-capture: " << describe(got[i]);
  }
  EXPECT_EQ(run_nested(run_knn_sequence), got);
}

// -- PCA ---------------------------------------------------------------------

struct PcaDigest {
  std::uint64_t mean, components, explained_variance;
  bool operator==(const PcaDigest&) const = default;
};

PcaDigest digest_of(const PcaResult& r) {
  return {digest(r.mean), digest(r.components.data()),
          digest(r.explained_variance)};
}

std::string describe(const PcaDigest& d) {
  return "{" + hex(d.mean) + ", " + hex(d.components) + ", " +
         hex(d.explained_variance) + "}";
}

const PcaDigest kPcaGolden = {0x55136ff175081d49ull, 0xdb065e2a74eedfa9ull,
                              0x03b913c24c94ff21ull};

PcaResult run_pca() {
  static const PointCloud cloud = uniform_cloud(600, 24, -1.0f, 1.0f, 14);
  PcaOptions opts;
  opts.components = 4;
  opts.power_iterations = 60;
  opts.seed = 3;
  return pca_power(cloud.points, opts);
}

TEST(AppsGolden, PcaMatchesToTheBit) {
  const PcaDigest got = digest_of(run_pca());
  EXPECT_EQ(got, kPcaGolden) << "re-capture: " << describe(got);
  const PcaDigest nested = digest_of(run_nested(run_pca));
  EXPECT_EQ(nested, got) << "nested: " << describe(nested);
}

// Captured before the matvec's fixed-width blocks: at dim 40 the power
// iteration runs one full 32-output block and the tail by 8.
const PcaDigest kPcaDim40Golden = {0x920153df4440a5bdull,
                                   0x7edbc3d769646abdull,
                                   0x244cad183fce5b48ull};

PcaResult run_pca_dim40() {
  static const PointCloud cloud = uniform_cloud(700, 40, -1.0f, 1.0f, 16);
  PcaOptions opts;
  opts.components = 3;
  opts.power_iterations = 40;
  opts.seed = 4;
  return pca_power(cloud.points, opts);
}

TEST(AppsGolden, PcaDim40MatchesToTheBit) {
  const PcaDigest got = digest_of(run_pca_dim40());
  EXPECT_EQ(got, kPcaDim40Golden) << "re-capture: " << describe(got);
  const PcaDigest nested = digest_of(run_nested(run_pca_dim40));
  EXPECT_EQ(nested, got) << "nested: " << describe(nested);
}

}  // namespace
}  // namespace egemm::apps
