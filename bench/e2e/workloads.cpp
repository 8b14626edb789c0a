// The four workloads of the end-to-end benchmark. Each one generates its
// inputs from the run seed, so the library only ever sees generated data,
// and verifies its outputs against verify/ once the timed window is over.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <utility>

#include "apps/dataset.hpp"
#include "apps/kmeans.hpp"
#include "apps/knn.hpp"
#include "apps/pca.hpp"
#include "core/scheme.hpp"
#include "e2e.hpp"
#include "gemm/gemm_api.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "verify/oracle.hpp"

namespace egemm::e2e {

namespace {

using gemm::Matrix;

/// Independent input stream `stream` of run seed `seed`.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x10000ULL + stream;
  return util::splitmix64(state);
}

Matrix uniform_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  return gemm::random_matrix(rows, cols, -1.0f, 1.0f, seed);
}

/// `count` distinct indices below `bound`, drawn from `seed`.
std::vector<std::size_t> sample_indices(std::size_t bound, std::size_t count,
                                        std::uint64_t seed) {
  std::vector<std::size_t> all(bound);
  for (std::size_t i = 0; i < bound; ++i) all[i] = i;
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng.below(bound - i)]);
  }
  all.resize(count);
  return all;
}

template <typename T>
void shuffle(std::vector<T>& items, util::Xoshiro256& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

/// Largest |D - oracle| over the listed rows of D = A x B, each element
/// divided by the rung's sound a-priori bound for its row/column scales.
double rows_err_over_bound(core::SchemeId rung, const Matrix& a,
                           const Matrix& b, const Matrix& d,
                           std::span<const std::size_t> rows) {
  Matrix a_rows(rows.size(), a.cols());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy(a.row(rows[r]), a.row(rows[r]) + a.cols(), a_rows.row(r));
  }
  const verify::OracleMatrix ref = verify::oracle_gemm(a_rows, b);
  std::vector<double> col_scale(b.cols(), 0.0);
  for (std::size_t t = 0; t < b.rows(); ++t) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      col_scale[j] =
          std::max(col_scale[j], std::fabs(static_cast<double>(b.at(t, j))));
    }
  }
  double worst = 0.0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double row_scale = 0.0;
    for (std::size_t t = 0; t < a.cols(); ++t) {
      row_scale =
          std::max(row_scale, std::fabs(static_cast<double>(a_rows.at(r, t))));
    }
    for (std::size_t j = 0; j < b.cols(); ++j) {
      const double bound =
          core::scheme_bound(rung, {a.cols(), row_scale, col_scale[j], 0.0})
              .worst_abs;
      const double err =
          std::fabs(static_cast<double>(d.at(rows[r], j)) - ref.value(r, j));
      const double ratio = err / bound;
      // NaN (a non-finite output) must fail the gate, not vanish in max().
      worst = std::isnan(ratio) ? std::numeric_limits<double>::infinity()
                                : std::max(worst, ratio);
    }
  }
  return worst;
}

double all_rows_err_over_bound(core::SchemeId rung, const Matrix& a,
                               const Matrix& b, const Matrix& d) {
  std::vector<std::size_t> rows(a.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows_err_over_bound(rung, a, b, d, rows);
}

/// Runs independent checks on the library's pool (the benchmark starts
/// no threads of its own) and returns each one's error-over-bound.
std::vector<double> run_checks(
    const std::vector<std::function<double()>>& jobs) {
  std::vector<double> results(jobs.size(), 0.0);
  util::global_pool().parallel_for(
      jobs.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) results[i] = jobs[i]();
      });
  return results;
}

core::SchemeId rung_of(const gemm::GemmPlan& plan) {
  return plan.scheme_id().value_or(core::SchemeId::kRound2);
}

// -- large-square ------------------------------------------------------------

class LargeSquare final : public Workload {
 public:
  static constexpr std::size_t kN = 1024;
  static constexpr std::size_t kCheckedRows = 64;

  explicit LargeSquare(std::uint64_t seed)
      : seed_(seed),
        a_(uniform_matrix(kN, kN, stream_seed(seed, 1))),
        b_(uniform_matrix(kN, kN, stream_seed(seed, 2))) {}

  void cold_pass() override {
    gemm::GemmContext ctx;
    Matrix d;
    ctx.plan(gemm::Backend::kEgemmTC, kN, kN, kN)
        ->execute(ctx, a_, b_, nullptr, d);
  }

  void warm() override {
    plan_ = ctx_.plan(gemm::Backend::kEgemmTC, kN, kN, kN);
    plan_->execute(ctx_, a_, b_, nullptr, d_);
  }

  std::uint64_t op(std::uint64_t) override {
    plan_->execute(ctx_, a_, b_, nullptr, d_);
    return gemm_flops({kN, kN, kN});
  }

  CheckResult check() override {
    // Every op computes the same D, so the last op's output stands for all.
    const std::vector<std::size_t> rows =
        sample_indices(kN, kCheckedRows, stream_seed(seed_, 3));
    std::vector<std::function<double()>> jobs;
    constexpr std::size_t kRowsPerJob = 4;
    for (std::size_t r0 = 0; r0 < rows.size(); r0 += kRowsPerJob) {
      jobs.emplace_back([this, &rows, r0] {
        return rows_err_over_bound(rung_of(*plan_), a_, b_, d_,
                                   std::span(rows).subspan(r0, kRowsPerJob));
      });
    }
    CheckResult result;
    result.checked_ops = 1;
    for (const double e : run_checks(jobs)) {
      result.err_over_bound = std::max(result.err_over_bound, e);
    }
    result.failed_ops = result.err_over_bound <= 1.0 ? 0 : 1;
    return result;
  }

  gemm::GemmContext& context() override { return ctx_; }

  LayerInputs layer_inputs() override {
    LayerInputs in;
    in.a = {&a_};
    in.b = {&b_};
    in.shapes = {{kN, kN, kN}};
    in.plan = [](gemm::GemmContext& ctx, const Shape& s) {
      return ctx.plan(gemm::Backend::kEgemmTC, s.m, s.n, s.k);
    };
    return in;
  }

  std::uint64_t smoke_ops() const override { return 4; }

 private:
  std::uint64_t seed_;
  Matrix a_, b_, d_;
  gemm::GemmContext ctx_;
  std::shared_ptr<const gemm::GemmPlan> plan_;
};

// -- the 256-op shape cycle shared by small-stream and grouped-3term ----------

constexpr std::size_t kCycle = 256;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kBatches = kCycle / kBatch;
constexpr std::size_t kSmallClasses = 36;

struct PairSet {
  std::vector<Shape> shapes;       ///< cycle order
  std::vector<std::size_t> klass;  ///< shape-class index per cycle slot
  std::vector<Matrix> a, b;
};

PairSet make_pairs(std::uint64_t seed) {
  std::vector<Shape> classes;
  constexpr std::size_t kMN[] = {32, 64, 128};
  constexpr std::size_t kK[] = {32, 64, 128, 256};
  for (const std::size_t m : kMN) {
    for (const std::size_t n : kMN) {
      for (const std::size_t k : kK) classes.push_back({m, n, k});
    }
  }
  // Every 64-op quarter holds the same multiset of classes (all 36 once
  // plus the first 28 again), so the four grouped batches carry equal work
  // and the op mix is the same for every seed. The seed sets the order
  // within each quarter and the operand values.
  std::vector<std::size_t> quarter(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) quarter[i] = i % kSmallClasses;
  util::Xoshiro256 rng(stream_seed(seed, 10));
  PairSet set;
  for (std::size_t q = 0; q < kBatches; ++q) {
    shuffle(quarter, rng);
    for (const std::size_t c : quarter) {
      set.klass.push_back(c);
      set.shapes.push_back(classes[c]);
    }
  }
  for (std::size_t i = 0; i < kCycle; ++i) {
    const Shape& s = set.shapes[i];
    set.a.push_back(uniform_matrix(s.m, s.k, stream_seed(seed, 1000 + 2 * i)));
    set.b.push_back(uniform_matrix(s.k, s.n, stream_seed(seed, 1001 + 2 * i)));
  }
  return set;
}

/// Whether window op `i` is sampled for the check on top of the first op
/// of each shape class: every 1000th op, among the first `span` ops. The
/// fixed span keeps the memory held for the check -- and with it
/// peak_rss_mb -- independent of how many ops a window completes.
bool sampled_op(std::uint64_t i, std::uint64_t span) {
  return i % 1000 == 0 && i < span;
}

LayerInputs pair_layer_inputs(const PairSet& pairs, int planes) {
  LayerInputs in;
  in.planes = planes;
  std::vector<bool> seen(kSmallClasses, false);
  for (std::size_t i = 0; i < kCycle; ++i) {
    in.a.push_back(&pairs.a[i]);
    in.b.push_back(&pairs.b[i]);
    if (!seen[pairs.klass[i]]) {
      seen[pairs.klass[i]] = true;
      in.shapes.push_back(pairs.shapes[i]);
    }
  }
  return in;
}

// -- small-stream ------------------------------------------------------------

class SmallStream final : public Workload {
 public:
  explicit SmallStream(std::uint64_t seed) : pairs_(make_pairs(seed)) {}

  void cold_pass() override {
    gemm::GemmContext ctx;
    for (std::size_t i = 0; i < kCycle; ++i) {
      static_cast<void>(gemm::gemm_ex(ctx, gemm::Backend::kEgemmTC,
                                      pairs_.a[i], pairs_.b[i], nullptr, {}));
    }
  }

  void warm() override {
    for (std::size_t i = 0; i < kCycle; ++i) {
      static_cast<void>(gemm::gemm_ex(gemm::Backend::kEgemmTC, pairs_.a[i],
                                      pairs_.b[i], nullptr, {}));
    }
  }

  std::uint64_t op(std::uint64_t i) override {
    const std::size_t slot = i % kCycle;
    Matrix d = gemm::gemm_ex(gemm::Backend::kEgemmTC, pairs_.a[slot],
                             pairs_.b[slot], nullptr, {});
    if (!seen_[pairs_.klass[slot]] || sampled_op(i, 64000)) {
      seen_[pairs_.klass[slot]] = true;
      kept_.emplace_back(slot, std::move(d));
    }
    return gemm_flops(pairs_.shapes[slot]);
  }

  CheckResult check() override {
    std::vector<std::function<double()>> jobs;
    for (const auto& [slot, d] : kept_) {
      const Shape& s = pairs_.shapes[slot];
      // The rung the one-shot call actually ran: a plan-cache hit on the
      // same context the window used.
      const core::SchemeId rung = rung_of(*context().plan(
          gemm::Backend::kEgemmTC, s.m, s.n, s.k));
      jobs.emplace_back([this, rung, slot = slot, &d = d] {
        return all_rows_err_over_bound(rung, pairs_.a[slot], pairs_.b[slot], d);
      });
    }
    CheckResult result;
    result.checked_ops = jobs.size();
    for (const double e : run_checks(jobs)) {
      result.err_over_bound = std::max(result.err_over_bound, e);
      if (!(e <= 1.0)) ++result.failed_ops;
    }
    return result;
  }

  gemm::GemmContext& context() override { return gemm::default_context(); }

  LayerInputs layer_inputs() override {
    LayerInputs in = pair_layer_inputs(pairs_, 2);
    in.plan = [](gemm::GemmContext& ctx, const Shape& s) {
      return ctx.plan(gemm::Backend::kEgemmTC, s.m, s.n, s.k);
    };
    return in;
  }

  std::uint64_t smoke_ops() const override { return 2 * kCycle; }

 private:
  PairSet pairs_;
  std::vector<bool> seen_ = std::vector<bool>(kSmallClasses, false);
  std::vector<std::pair<std::size_t, Matrix>> kept_;
};

// -- grouped-3term -----------------------------------------------------------

/// The 256 pairs planned on the recovery-3term rung, four 64-item batches.
struct GroupedBatches {
  std::vector<std::shared_ptr<const gemm::GemmPlan>> plans;
  std::vector<Matrix> d;
  std::vector<std::vector<gemm::GroupedGemm>> items;

  GroupedBatches(gemm::GemmContext& ctx, const PairSet& pairs)
      : d(kCycle), items(kBatches) {
    for (std::size_t i = 0; i < kCycle; ++i) {
      const Shape& s = pairs.shapes[i];
      plans.push_back(
          ctx.plan_scheme(core::SchemeId::kRecovery3, s.m, s.n, s.k));
      items[i / kBatch].push_back(
          {plans.back(), &pairs.a[i], &pairs.b[i], nullptr, &d[i]});
    }
  }
};

class Grouped3Term final : public Workload {
 public:
  explicit Grouped3Term(std::uint64_t seed) : pairs_(make_pairs(seed)) {
    for (std::size_t i = 0; i < kCycle; ++i) {
      batch_flops_[i / kBatch] += gemm_flops(pairs_.shapes[i]);
    }
  }

  void cold_pass() override {
    gemm::GemmContext ctx;
    GroupedBatches batches(ctx, pairs_);
    for (const auto& items : batches.items) ctx.execute_grouped(items);
  }

  void warm() override {
    batches_ = std::make_unique<GroupedBatches>(ctx_, pairs_);
    for (const auto& items : batches_->items) ctx_.execute_grouped(items);
  }

  std::uint64_t op(std::uint64_t i) override {
    const std::size_t batch = i % kBatches;
    ctx_.execute_grouped(batches_->items[batch]);
    // The first run of each batch covers all 36 shape classes.
    if (i < kBatches || sampled_op(i, 4000)) {
      const auto first =
          batches_->d.begin() + static_cast<std::ptrdiff_t>(batch * kBatch);
      const auto last = first + static_cast<std::ptrdiff_t>(kBatch);
      kept_.emplace_back(batch, std::vector<Matrix>(first, last));
    }
    return batch_flops_[batch];
  }

  CheckResult check() override {
    std::vector<std::function<double()>> jobs;
    for (const auto& [batch, outputs] : kept_) {
      for (std::size_t j = 0; j < kBatch; ++j) {
        const std::size_t slot = batch * kBatch + j;
        jobs.emplace_back([this, slot, &d = outputs[j]] {
          return all_rows_err_over_bound(rung_of(*batches_->plans[slot]),
                                         pairs_.a[slot], pairs_.b[slot], d);
        });
      }
    }
    const std::vector<double> errors = run_checks(jobs);
    CheckResult result;
    result.checked_ops = kept_.size();
    for (std::size_t op = 0; op < kept_.size(); ++op) {
      bool ok = true;
      for (std::size_t j = 0; j < kBatch; ++j) {
        const double e = errors[op * kBatch + j];
        result.err_over_bound = std::max(result.err_over_bound, e);
        ok = ok && e <= 1.0;
      }
      if (!ok) ++result.failed_ops;
    }
    return result;
  }

  gemm::GemmContext& context() override { return ctx_; }

  LayerInputs layer_inputs() override {
    LayerInputs in = pair_layer_inputs(pairs_, 3);
    in.plan = [](gemm::GemmContext& ctx, const Shape& s) {
      return ctx.plan_scheme(core::SchemeId::kRecovery3, s.m, s.n, s.k);
    };
    return in;
  }

  std::uint64_t smoke_ops() const override { return 4 * kBatches; }

 private:
  PairSet pairs_;
  std::uint64_t batch_flops_[kBatches] = {};
  gemm::GemmContext ctx_;
  std::unique_ptr<GroupedBatches> batches_;
  std::vector<std::pair<std::size_t, std::vector<Matrix>>> kept_;
};

// -- apps --------------------------------------------------------------------

class AppsRound final : public Workload {
 public:
  static constexpr std::size_t kDim = 128;
  static constexpr std::size_t kKmeansPoints = 8192;
  static constexpr int kClusters = 32;
  static constexpr int kMaxIterations = 10;
  static constexpr std::size_t kQueries = 2048;
  static constexpr std::size_t kRefs = 4096;
  static constexpr int kNeighbors = 16;
  static constexpr std::size_t kPcaPoints = 16384;
  static constexpr int kComponents = 8;
  /// Power iterations per component. The default 50 leaves the near-equal
  /// leading eigenvalues of a uniform cloud unconverged, and deflation then
  /// breaks orthonormality past 1e-2 on some seeds; 200 keeps it under
  /// 0.007 on 30 probed seeds.
  static constexpr int kPowerIterations = 200;
  static constexpr std::size_t kCheckedQueries = 256;

  explicit AppsRound(std::uint64_t seed)
      : seed_(seed),
        kmeans_points_(apps::gaussian_mixture(kKmeansPoints, kDim, kClusters,
                                              0.1, stream_seed(seed, 1))
                           .points),
        queries_(apps::uniform_cloud(kQueries, kDim, -1.0f, 1.0f,
                                     stream_seed(seed, 2))
                     .points),
        refs_(apps::uniform_cloud(kRefs, kDim, -1.0f, 1.0f,
                                  stream_seed(seed, 3))
                  .points),
        pca_points_(apps::uniform_cloud(kPcaPoints, kDim, -1.0f, 1.0f,
                                        stream_seed(seed, 4))
                        .points) {}

  void cold_pass() override {
    gemm::GemmContext ctx;
    static_cast<void>(round(ctx));
  }

  void warm() override { static_cast<void>(round(ctx_)); }

  std::uint64_t op(std::uint64_t) override {
    Round r = round(ctx_);
    kmeans_ms_.push_back(r.kmeans_ms);
    knn_ms_.push_back(r.knn_ms);
    pca_ms_.push_back(r.pca_ms);
    kmeans_iters_ = r.kmeans.iterations;
    const std::uint64_t flops =
        gemm_flops({kKmeansPoints, kClusters, kDim}) *
            static_cast<std::uint64_t>(r.kmeans.iterations) +
        gemm_flops({kQueries, kRefs, kDim}) +
        gemm_flops({kDim, kDim, kPcaPoints});
    if (!kept_) kept_ = std::make_unique<Round>(std::move(r));
    return flops;
  }

  CheckResult check() override {
    CheckResult result;
    if (!kept_) return result;
    result.checked_ops = 1;
    // kNN: neighbour lists of sampled queries against the binary64 brute
    // force.
    const std::vector<std::size_t> sampled =
        sample_indices(kQueries, kCheckedQueries, stream_seed(seed_, 5));
    Matrix sub(kCheckedQueries, kDim);
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      std::copy(queries_.row(sampled[i]), queries_.row(sampled[i]) + kDim,
                sub.row(i));
    }
    const apps::KnnResult exact = apps::knn_bruteforce(sub, refs_, kNeighbors);
    std::size_t matches = 0;
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      for (std::size_t j = 0; j < static_cast<std::size_t>(kNeighbors); ++j) {
        if (kept_->knn.indices.at(sampled[i], j) == exact.indices.at(i, j)) {
          ++matches;
        }
      }
    }
    const double disagreement =
        1.0 - static_cast<double>(matches) /
                  static_cast<double>(kCheckedQueries * kNeighbors);
    // kMeans: the reported inertia against the binary64 recomputation.
    const double inertia = apps::kmeans_inertia(
        kmeans_points_, kept_->kmeans.centroids, kept_->kmeans.assignment);
    const double inertia_rel =
        std::fabs(kept_->kmeans.inertia - inertia) / inertia;
    // PCA: the components must be orthonormal.
    double ortho = 0.0;
    const Matrix& c = kept_->pca.components;
    for (std::size_t i = 0; i < c.rows(); ++i) {
      for (std::size_t j = 0; j < c.rows(); ++j) {
        double dot = 0.0;
        for (std::size_t t = 0; t < c.cols(); ++t) {
          dot += static_cast<double>(c.at(i, t)) *
                 static_cast<double>(c.at(j, t));
        }
        ortho = std::max(ortho, std::fabs(dot - (i == j ? 1.0 : 0.0)));
      }
    }
    const double ratios[] = {disagreement / kKnnTolerance,
                             inertia_rel / kInertiaTolerance,
                             ortho / kOrthoTolerance};
    for (const double r : ratios) {
      result.err_over_bound = std::isnan(r)
                                  ? std::numeric_limits<double>::infinity()
                                  : std::max(result.err_over_bound, r);
    }
    result.failed_ops = result.err_over_bound <= 1.0 ? 0 : 1;
    std::fprintf(stderr,
                 "apps check: knn disagreement %.4g, kmeans inertia rel err "
                 "%.3g (%d iterations), pca orthonormality %.3g\n",
                 disagreement, inertia_rel, kept_->kmeans.iterations, ortho);
    return result;
  }

  gemm::GemmContext& context() override { return ctx_; }

  LayerInputs layer_inputs() override {
    if (probe_b_.empty()) {
      Matrix first(static_cast<std::size_t>(kClusters), kDim);
      std::copy(kmeans_points_.row(0),
                kmeans_points_.row(static_cast<std::size_t>(kClusters)),
                first.row(0));
      probe_a_.push_back(gemm::transpose(pca_points_));
      probe_b_.push_back(gemm::transpose(first));
      probe_b_.push_back(gemm::transpose(refs_));
    }
    LayerInputs in;
    in.a = {&kmeans_points_, &queries_, &probe_a_[0]};
    in.b = {&probe_b_[0], &probe_b_[1], &pca_points_};
    in.shapes = {{kKmeansPoints, static_cast<std::size_t>(kClusters), kDim},
                 {kQueries, kRefs, kDim},
                 {kDim, kDim, kPcaPoints}};
    in.plan = [](gemm::GemmContext& ctx, const Shape& s) {
      return ctx.plan(gemm::Backend::kEgemmTC, s.m, s.n, s.k);
    };
    return in;
  }

  void report(Metrics& out) const override {
    out["apps.kmeans_ms"] = {quantile(kmeans_ms_, 0.5), "ms"};
    out["apps.knn_ms"] = {quantile(knn_ms_, 0.5), "ms"};
    out["apps.pca_ms"] = {quantile(pca_ms_, 0.5), "ms"};
    out["apps.kmeans_iters"] = {static_cast<double>(kmeans_iters_), "count"};
  }

  std::uint64_t smoke_ops() const override { return 2; }

 private:
  static constexpr double kKnnTolerance = 0.01;
  static constexpr double kInertiaTolerance = 1e-4;
  static constexpr double kOrthoTolerance = 1e-2;

  struct Round {
    apps::KMeansResult kmeans;
    apps::KnnResult knn;
    apps::PcaResult pca;
    double kmeans_ms = 0.0, knn_ms = 0.0, pca_ms = 0.0;
  };

  Round round(gemm::GemmContext& ctx) const {
    Round r;
    {
      EGEMM_TRACE_SCOPE("bench.kmeans");
      apps::KMeansOptions opts;
      opts.clusters = kClusters;
      opts.max_iterations = kMaxIterations;
      opts.seed = stream_seed(seed_, 6);
      opts.context = &ctx;
      const std::uint64_t t0 = now_ns();
      r.kmeans = apps::kmeans(kmeans_points_, opts);
      r.kmeans_ms = static_cast<double>(now_ns() - t0) / 1e6;
    }
    {
      EGEMM_TRACE_SCOPE("bench.knn");
      apps::KnnOptions opts;
      opts.k = kNeighbors;
      opts.context = &ctx;
      const std::uint64_t t0 = now_ns();
      r.knn = apps::knn_search(queries_, refs_, opts);
      r.knn_ms = static_cast<double>(now_ns() - t0) / 1e6;
    }
    {
      EGEMM_TRACE_SCOPE("bench.pca");
      apps::PcaOptions opts;
      opts.components = kComponents;
      opts.power_iterations = kPowerIterations;
      opts.seed = stream_seed(seed_, 7);
      opts.context = &ctx;
      const std::uint64_t t0 = now_ns();
      r.pca = apps::pca_power(pca_points_, opts);
      r.pca_ms = static_cast<double>(now_ns() - t0) / 1e6;
    }
    return r;
  }

  std::uint64_t seed_;
  Matrix kmeans_points_, queries_, refs_, pca_points_;
  std::vector<Matrix> probe_a_, probe_b_;
  gemm::GemmContext ctx_;
  std::vector<double> kmeans_ms_, knn_ms_, pca_ms_;
  int kmeans_iters_ = 0;
  std::unique_ptr<Round> kept_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"large-square", "small-stream",
                                                 "grouped-3term", "apps"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "large-square") return std::make_unique<LargeSquare>(seed);
  if (name == "small-stream") return std::make_unique<SmallStream>(seed);
  if (name == "grouped-3term") return std::make_unique<Grouped3Term>(seed);
  if (name == "apps") return std::make_unique<AppsRound>(seed);
  return nullptr;
}

}  // namespace egemm::e2e
