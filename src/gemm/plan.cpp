#include "gemm/plan.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "gemm/baselines.hpp"
#include "gemm/prep_rows.hpp"
#include "obs/callrec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/isa.hpp"
#include "tcsim/tensor_core.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace egemm::gemm {

namespace {

constexpr std::size_t kTile = 16;  // wmma primitive extent
static_assert(kTile == kPackTile && kTile == tcsim::kTcM &&
              kTile == tcsim::kTcN);

#ifndef NDEBUG
std::atomic<std::uint64_t> g_workspace_allocations{0};

/// Debug builds count every element an execute splits in its own ItemRun.
constexpr bool kCountSplits = true;
#else
constexpr bool kCountSplits = false;
#endif

void count_workspace_allocation() noexcept {
#ifndef NDEBUG
  g_workspace_allocations.fetch_add(1, std::memory_order_relaxed);
#endif
}

/// Thread-local breadcrumb from plan_for to execute: when a caller runs a
/// plan immediately after looking it up (the GemmContext::run / gemm_ex
/// path), the record can say whether that lookup hit the plan cache.
/// Consumed on first use; a plan held across calls reports kUnknown.
thread_local const void* tl_last_plan = nullptr;
thread_local obs::PlanLookup tl_last_lookup = obs::PlanLookup::kUnknown;

void leave_breadcrumb(const void* plan, obs::PlanLookup lookup) noexcept {
  tl_last_plan = plan;
  tl_last_lookup = lookup;
}

/// NaN canonicalization at the D store, as the modeled hardware does: the
/// Tensor Core emits a canonical quiet NaN, never an input payload. Without
/// this, x86 NaN propagation picks the *first* operand's payload, so the
/// packed engine and the scalar oracle (verify/reference_execute.hpp) could
/// return bitwise-different NaNs for the same case purely from compiler
/// register allocation.
inline float canonical_store(float x) noexcept {
  return std::isnan(x) ? std::numeric_limits<float>::quiet_NaN() : x;
}

/// k-slab length for the kSeparatePasses combo order. Any EVEN value is
/// bit-identical to any other (pair boundaries stay on even k offsets), so
/// the length is a pure blocking choice: 512 keeps one B slab (512 x 16
/// floats = 32 KiB) L1-resident while the recipe kernel streams it. The
/// kFusedPerTile order is different -- there the slab length is part of
/// the emulation recipe (terms interleave per slab) and stays at the
/// semantic kTile.
constexpr int kSeparateSlab = 512;
static_assert(kSeparateSlab % 2 == 0);

/// One 16x16 output tile of the packed engine (DESIGN.md §10): the whole
/// term x k-slab recipe runs in ONE dispatched tcsim::mma_tile_recipe call
/// over the workspace's pre-packed planes, so the SIMD variants keep the
/// accumulator in registers across the entire k extent. Per output element
/// the operation sequence is identical to the scalar oracle's
/// (verify::reference_execute), so the result is bit-identical. The
/// register tile starts from C's tile (or zeros), and the store writes
/// every element of D's tile; writeback time is added to a non-null
/// `combine`.
void packed_tile(const Matrix* c, Matrix& d, const PackedPlanes& apack,
                 const PackedPlanes& bpack, std::size_t k,
                 std::span<const core::SchemeTerm> terms, ComboOrder order,
                 std::size_t rb, std::size_t cb, std::uint64_t* combine) {
  const std::size_t m = d.rows();
  const std::size_t n = d.cols();
  const bool fused = order == ComboOrder::kFusedPerTile;
  const int k_slab = fused ? static_cast<int>(kTile) : kSeparateSlab;
  const std::size_t i0 = rb * kTile;
  const std::size_t mt = std::min(kTile, m - i0);
  const std::size_t j0 = cb * kTile;
  const std::size_t nt = std::min(kTile, n - j0);
  const float* a_blocks[core::kMaxSchemeTerms];
  const float* b_blocks[core::kMaxSchemeTerms];
  for (std::size_t t = 0; t < terms.size(); ++t) {
    a_blocks[t] = apack.block(static_cast<std::size_t>(terms[t].a_depth), rb);
    b_blocks[t] = bpack.block(static_cast<std::size_t>(terms[t].b_depth), cb);
    // Warm the first lines of each term's B block; the recipe kernel
    // prefetches ahead within each stream but cannot see across the term
    // boundary.
    __builtin_prefetch(b_blocks[t]);
  }
  // Full 16x16 accumulator; lanes past (mt, nt) compute against the packs'
  // zero padding and are never copied back.
  alignas(64) float acc[kTile][kTile] = {};
  if (c != nullptr) {
    for (std::size_t i = 0; i < mt; ++i) {
      for (std::size_t j = 0; j < nt; ++j) {
        acc[i][j] = c->at(i0 + i, j0 + j);
      }
    }
  }
  if (k > 0) {  // zero-extent K: the tile is the C passthrough
    tcsim::mma_tile_recipe(&acc[0][0], a_blocks, b_blocks,
                           static_cast<int>(terms.size()), static_cast<int>(k),
                           k_slab, fused);
  }
  const obs::StageTimer timer("combine", combine);
  for (std::size_t i = 0; i < mt; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      d.at(i0 + i, j0 + j) = canonical_store(acc[i][j]);
    }
  }
}

/// Process-unique grouped-execute ids for CallRecord::batch_id (0 means
/// unbatched, so the first batch is 1).
std::atomic<std::uint32_t> g_batch_counter{0};

/// Floor on the FLOPs a flattened-stream chunk should carry: below ~4
/// MFLOP the pool round-trip dominates the chunk. The batch grain is this
/// divided by the stream's mean per-block FLOPs, so batches of tiny items
/// coalesce many items into one task while large items still fan out.
constexpr std::uint64_t kMinChunkFlops = std::uint64_t{1} << 22;

/// Splits in[0, count) per the plan's recipe into out[p], one run per
/// plane, by split depth (plane 0 = hi). `split_ns` (when non-null)
/// accumulates the time.
void split_run(const GemmPlan& plan, const float* in, std::size_t count,
               float* const* out, std::uint64_t* split_ns) {
  const obs::StageTimer timer(nullptr, split_ns);
  core::split_planes_f32({in, count},
                         {out, static_cast<std::size_t>(plan.planes())},
                         plan.split());
}

/// The backend a rung's fused plans run as.
Backend rung_backend(core::SchemeId scheme) noexcept {
  switch (scheme) {
    case core::SchemeId::kHalf:
      return Backend::kCublasTcHalf;
    case core::SchemeId::kMarkidis:
      return Backend::kMarkidis;
    default:
      return Backend::kEgemmTC;
  }
}

/// The one PlanKey builder behind every planning entry point: shape,
/// backend, and the rung whose descriptor the plan runs (-1 for a direct
/// binary32 backend).
PlanKey plan_key(Backend backend, std::size_t m, std::size_t n, std::size_t k,
                 int scheme) {
  return {m, n, k, backend, static_cast<std::int8_t>(scheme)};
}

/// Bumps the per-scheme execute counter gemm.scheme.<name>. Static
/// handles, same pattern as the differential runner's per-path counters.
void count_scheme_execute(core::SchemeId scheme) {
  if constexpr (obs::kEnabled) {
    static const std::array<obs::Counter*, core::kSchemeCount> counters = [] {
      std::array<obs::Counter*, core::kSchemeCount> handles{};
      for (std::size_t s = 0; s < core::kSchemeCount; ++s) {
        handles[s] = &obs::registry().counter(
            std::string("gemm.scheme.") +
            core::scheme_name(static_cast<core::SchemeId>(s)));
      }
      return handles;
    }();
    counters[static_cast<std::size_t>(scheme)]->add(1);
  }
}

/// What the rows of `side`'s source matrix are when it is read per
/// `trans`: A as given and B transposed have lane rows, the others k rows.
PackSource source_of(Side side, Transpose trans) noexcept {
  const bool transposed = trans == Transpose::kTranspose;
  return (side == Side::kA) != transposed ? PackSource::kLaneRows
                                          : PackSource::kKRows;
}

/// Checks one operand against `plan`. A matrix's extents, read per its
/// orientation, must be the plan's: a precondition, so a mismatch aborts.
/// A kept pack that does not fit the plan is an input the caller could not
/// see by its type, so it throws std::invalid_argument instead.
void check_operand(const GemmPlan& plan, Side side, const Operand& op) {
  const std::size_t lanes = side == Side::kA ? plan.m() : plan.n();
  if (const KeptPack* kept = op.kept()) {
    if (plan.direct() || kept->lanes() != lanes || kept->k() != plan.k() ||
        kept->planes() != static_cast<std::size_t>(plan.planes()) ||
        kept->split() != plan.split()) {
      char message[224];
      std::snprintf(message, sizeof(message),
                    "kept pack for %s (%zu lanes x %zu k, %zu planes, %s) "
                    "does not fit the plan (%zu x %zu x %zu, %s)",
                    side == Side::kA ? "A" : "B", kept->lanes(), kept->k(),
                    kept->planes(), core::split_method_name(kept->split()),
                    plan.m(), plan.n(), plan.k(),
                    plan.direct() ? "direct"
                                  : core::split_method_name(plan.split()));
      throw std::invalid_argument(message);
    }
    return;
  }
  EGEMM_EXPECTS(op.matrix() != nullptr);
  const bool lane_rows = source_of(side, op.trans()) == PackSource::kLaneRows;
  EGEMM_EXPECTS(op.matrix()->rows() == (lane_rows ? lanes : plan.k()) &&
                op.matrix()->cols() == (lane_rows ? plan.k() : lanes));
}

/// One GEMM of an execute: its operands, its workspace, its place in the
/// prep and block streams (a block is one 16x16 output tile), and the
/// stage weights its call record is built from. GemmPlan::keep runs one
/// too, with a single operand and no workspace.
struct ItemRun {
  struct Operands {
    const GemmPlan* plan = nullptr;
    Operand a;
    Operand b;
    const Matrix* c = nullptr;
    Matrix* d = nullptr;
  } op;
  Workspace* ws = nullptr;
  std::optional<WorkspaceLease> lease;  ///< the item's own, when pooled
  // The packs prep fills (null for an operand it does not), in the
  // orientation each source is read, and the packs the tiles read: the
  // filled ones, or kept packs.
  PackedPlanes* fill_a = nullptr;
  PackedPlanes* fill_b = nullptr;
  PackSource a_source = PackSource::kLaneRows;
  PackSource b_source = PackSource::kKRows;
  const PackedPlanes* apack = nullptr;
  const PackedPlanes* bpack = nullptr;
  PrepRows rows;               ///< the prep's row space
  std::size_t row_blocks = 0;
  std::size_t col_blocks = 0;
  std::size_t first = 0;       ///< offset into the flattened block stream
  std::size_t prep_first = 0;  ///< offset into the prep chunk stream
  // Stage weights in ns (zero with observability compiled out). prep_ns
  // sums the item's prep chunks (split into the packs) on whichever
  // threads ran them; direct_ns is a direct backend's kernel on the
  // calling thread. Chunks and engine stretches of one item run on many
  // pool threads at once, so their weights are atomic.
  std::atomic<std::uint64_t> prep_ns{0};
  std::atomic<std::uint64_t> split_ns{0};
  std::atomic<std::uint64_t> pack_ns{0};
  std::uint64_t direct_ns = 0;
  std::atomic<std::uint64_t> engine_ns{0};
  std::atomic<std::uint64_t> combine_ns{0};
  /// Elements the prep chunks split (debug builds only).
  std::atomic<std::uint64_t> split_elements{0};

  const PlanKey& key() const noexcept { return op.plan->key(); }
  std::size_t blocks() const noexcept { return row_blocks * col_blocks; }

  /// Lays out the prep of `side`, filled from `source` (into fill_a or
  /// fill_b, set by the caller).
  void prep(Side side, const Operand& source) {
    const GemmPlan& plan = *op.plan;
    const PackSource from = source_of(side, source.trans());
    const PrepSpan span =
        PrepSpan::of(from, side == Side::kA ? plan.m() : plan.n(), plan.k(),
                     plan.planes());
    if (side == Side::kA) {
      a_source = from;
      rows = PrepRows(span, rows.b);
    } else {
      b_source = from;
      rows = PrepRows(rows.a, span);
    }
  }

  /// Elements prep must split: every row of each filled pack once, a
  /// transposing fill's whole 16-lane panels (its last panel's lanes past
  /// the extent split from zeros).
  std::uint64_t expected_split() const noexcept {
    std::uint64_t total = 0;
    for (const auto& [pack, source] : {std::pair{fill_a, a_source},
                                      std::pair{fill_b, b_source}}) {
      if (pack == nullptr) continue;
      const std::size_t lanes =
          source == PackSource::kLaneRows
              ? (pack->lanes() + kTile - 1) / kTile * kTile
              : pack->lanes();
      total += static_cast<std::uint64_t>(lanes) * pack->k();
    }
    return total;
  }
};

/// Wall segments of one execute on the calling thread, which the records
/// apportion by the item weights.
struct Walls {
  std::uint64_t start = 0;
  std::uint64_t prep = 0;
  std::uint64_t engine = 0;
};

/// A direct plan's kernel. The binary32 baselines read row-major operands
/// as given, so a transposed one is copied first.
void run_direct(const ItemRun::Operands& op) {
  Matrix a_copy;
  Matrix b_copy;
  const auto as_given = [](const Operand& x, Matrix& copy) -> const Matrix& {
    if (x.trans() == Transpose::kNone) return *x.matrix();
    transpose_into(*x.matrix(), copy);
    return copy;
  };
  const Matrix& a = as_given(op.a, a_copy);
  const Matrix& b = as_given(op.b, b_copy);
  switch (op.plan->backend()) {
    case Backend::kCublasFp32:
      sgemm_fp32_into(a, b, op.c, *op.d);
      break;
    case Backend::kSdkFp32:
      EGEMM_EXPECTS(op.c == nullptr);
      sdk_gemm_fp32_into(a, b, *op.d);
      break;
    case Backend::kDekker:
      gemm_dekker_into(a, b, op.c, *op.d);
      break;
    default:
      EGEMM_EXPECTS(!"unreachable direct backend");
      break;
  }
}

/// Readies an item for its prep chunks: points prep at the workspace's
/// packs for the operands not passed as kept packs and sizes them, points
/// the tiles at the packs they read, sizes the output, and counts the
/// execute.
void size_item(ItemRun& run) {
  const GemmPlan& plan = *run.op.plan;
  const KeptPack* kept_a = run.op.a.kept();
  const KeptPack* kept_b = run.op.b.kept();
  run.ws->ensure(plan.m(), plan.n(), plan.k(), plan.planes(),
                 kept_a == nullptr, kept_b == nullptr);
  if (kept_a == nullptr) run.fill_a = &run.ws->packed_a();
  if (kept_b == nullptr) run.fill_b = &run.ws->packed_b();
  run.apack = kept_a != nullptr ? &kept_a->pack() : run.fill_a;
  run.bpack = kept_b != nullptr ? &kept_b->pack() : run.fill_b;
  run.op.d->resize(plan.m(), plan.n());
  EGEMM_COUNTER_ADD("egemm.calls", 1);
  count_scheme_execute(*plan.scheme_id());
}

/// One prep chunk: rows [u0, u1) of the item's PrepRows space. The
/// O(N^2) data-split pass (it runs on CUDA cores in the real kernel)
/// splits the chunk's rows of each filled operand straight into its pack,
/// through the transposing or the copying fill as its source's rows are
/// lanes or k. Every step is element-wise, so any cut of the space gives
/// the same pack bits. The "split" span covers A's fill, transposes
/// included; the "pack" span covers B's, whose split time the record
/// still counts as split.
void prep_rows(ItemRun& run, std::size_t u0, std::size_t u1) {
  const std::size_t a_rows = run.rows.a.rows;
  const std::size_t a0 = std::min(u0, a_rows);
  const std::size_t a1 = std::min(u1, a_rows);
  const std::size_t b0 = std::max(u0, a_rows) - a_rows;
  const std::size_t b1 = std::max(u1, a_rows) - a_rows;
  const auto split = [&run](std::uint64_t* split_ns) {
    return [&run, split_ns](const float* in, std::size_t count,
                            float* const* out) {
      if constexpr (kCountSplits) {
        run.split_elements.fetch_add(count, std::memory_order_relaxed);
      }
      split_run(*run.op.plan, in, count, out, split_ns);
    };
  };
  std::uint64_t prep = 0;
  std::uint64_t split_ns = 0;
  std::uint64_t b_fill = 0;
  std::uint64_t b_split = 0;
  {
    const obs::StageTimer chunk(nullptr, &prep);
    if (a0 < a1) {
      const obs::StageTimer timer("split", &split_ns);
      run.fill_a->fill_rows(run.a_source, a0, a1,
                            run.op.a.matrix()->data().data(),
                            split(nullptr));
    }
    if (b0 < b1) {
      const obs::StageTimer timer("pack", &b_fill);
      run.fill_b->fill_rows(run.b_source, b0, b1,
                            run.op.b.matrix()->data().data(),
                            split(&b_split));
    }
  }
  // B's strip splits ran inside b_fill's window.
  const std::uint64_t pack = b_fill - b_split;
  split_ns += b_split;
  run.prep_ns.fetch_add(prep, std::memory_order_relaxed);
  run.split_ns.fetch_add(split_ns, std::memory_order_relaxed);
  run.pack_ns.fetch_add(pack, std::memory_order_relaxed);
}

/// Runs every prep chunk of `runs` (`chunks` in all, each run's from its
/// prep_first) in one pool pass.
void prep_pass(std::span<ItemRun> runs, std::size_t chunks) {
  util::global_pool().parallel_for(chunks, [&runs](std::size_t c0,
                                                   std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      // The last item starting at or before c owns it, as in the block
      // stream.
      ItemRun& run =
          *(std::ranges::upper_bound(runs, c, {}, &ItemRun::prep_first) - 1);
      const std::size_t j = c - run.prep_first;
      prep_rows(run, run.rows.start(j), run.rows.start(j + 1));
    }
  });
}

/// Debug builds: each input element must be split exactly once per
/// execute -- the plane cache is the point of the packed engine, so
/// re-splitting anywhere downstream is a bug -- and a kept pack's not at
/// all. The count is the run's own, so concurrent executes check exactly.
void check_split_once(const ItemRun& run) {
  if constexpr (kCountSplits) {
    EGEMM_ENSURES(run.split_elements.load(std::memory_order_relaxed) ==
                  run.expected_split());
  }
}

void run_block(const ItemRun& run, std::size_t rb, std::size_t cb,
               std::uint64_t* combine) {
  const GemmPlan& plan = *run.op.plan;
  packed_tile(run.op.c, *run.op.d, *run.apack, *run.bpack, plan.k(),
              plan.terms(), plan.order(), rb, cb, combine);
}

/// Runs one stretch of an item's blocks; `walk(combine)` visits them. The
/// caller opens the "mma" span and counts the tiles once per pool chunk.
/// The stretch's wall time and its writeback time join the item's engine
/// weights.
template <typename Walk>
void run_stretch(ItemRun& run, const Walk& walk) {
  std::uint64_t wall = 0;
  std::uint64_t combine = 0;
  {
    const obs::StageTimer stretch(nullptr, &wall);
    walk(&combine);
  }
  run.engine_ns.fetch_add(wall, std::memory_order_relaxed);
  run.combine_ns.fetch_add(combine, std::memory_order_relaxed);
}

/// Blocks [l0, l1) of one item in row-major order.
void run_linear(ItemRun& run, std::size_t l0, std::size_t l1) {
  if (l0 == l1) return;
  run_stretch(run, [&](std::uint64_t* combine) {
    std::size_t rb = l0 / run.col_blocks;
    std::size_t cb = l0 % run.col_blocks;
    for (std::size_t l = l0; l < l1; ++l) {
      run_block(run, rb, cb, combine);
      if (++cb == run.col_blocks) {
        cb = 0;
        ++rb;
      }
    }
  });
}

/// Builds and deposits the CallRecords of one execute (DESIGN.md §17): one
/// per distinct plan, tagged with `batch_id` (0 for a single call) and
/// the plan's item count. The calling thread's wall segments are
/// apportioned by the item weights -- split and pack by their share of
/// all prep time, mma and combine by their share of all engine time -- so
/// work that overlapped on pool threads is never counted twice. Wall time
/// outside every segment is spread by item count. Each record's stages
/// therefore sum to at most its total_ns, and the records' total_ns to at
/// most the call's wall time.
void record_calls(std::span<const ItemRun> runs, const Walls& walls,
                  std::uint32_t batch_id, obs::PlanLookup lookup) {
  const std::uint64_t wall = obs::monotonic_ns() - walls.start;
  EGEMM_LATENCY_RECORD("egemm.execute.latency", wall);
  std::uint64_t prep = 0;
  std::uint64_t engine = 0;
  std::uint64_t direct = 0;
  for (const ItemRun& run : runs) {
    prep += run.prep_ns.load(std::memory_order_relaxed);
    engine += run.engine_ns.load(std::memory_order_relaxed);
    direct += run.direct_ns;
  }
  const auto scale = [](std::uint64_t segment, std::uint64_t weights) {
    return weights == 0 ? 0.0
                        : static_cast<double>(segment) /
                              static_cast<double>(weights);
  };
  const double prep_scale = scale(walls.prep, prep);
  const double engine_scale = scale(walls.engine, engine);
  const auto apportion = [](std::uint64_t weight, double factor) {
    return static_cast<std::uint64_t>(static_cast<double>(weight) * factor);
  };
  const std::uint64_t measured = walls.prep + walls.engine + direct;
  const std::uint64_t other = wall > measured ? wall - measured : 0;

  for (std::size_t j = 0; j < runs.size(); ++j) {
    const GemmPlan* plan = runs[j].op.plan;
    const auto same_plan = [plan](const ItemRun& r) {
      return r.op.plan == plan;
    };
    if (std::ranges::any_of(runs.first(j), same_plan)) {
      continue;  // the plan's first item already recorded it
    }
    const PlanKey& key = plan->key();
    const std::size_t d_elems = key.m * key.n;
    obs::CallRecord rec;
    std::uint64_t items = 0;
    std::uint64_t class_prep = 0;
    std::uint64_t class_engine = 0;
    std::uint64_t class_direct = 0;
    std::uint64_t class_combine = 0;
    for (const ItemRun& run : runs.subspan(j)) {
      if (!same_plan(run)) continue;
      ++items;
      class_prep += run.prep_ns.load(std::memory_order_relaxed);
      rec.split_ns += run.split_ns.load(std::memory_order_relaxed);
      rec.pack_ns += run.pack_ns.load(std::memory_order_relaxed);
      class_engine += run.engine_ns.load(std::memory_order_relaxed);
      class_combine += run.combine_ns.load(std::memory_order_relaxed);
      class_direct += run.direct_ns;
      // A kept operand's matrix is not read; its pack still is.
      const std::size_t inputs =
          (run.op.a.kept() != nullptr ? 0 : key.m * key.k) +
          (run.op.b.kept() != nullptr ? 0 : key.k * key.n);
      rec.bytes_moved += (inputs + d_elems +
                          (run.op.c != nullptr ? d_elems : 0)) *
                             sizeof(float) +
                         plan->workspace_bytes();
    }
    rec.split_ns = apportion(rec.split_ns, prep_scale);
    rec.pack_ns = apportion(rec.pack_ns, prep_scale);
    const std::uint64_t engine_ns = apportion(class_engine, engine_scale);
    rec.combine_ns = apportion(class_combine, engine_scale);
    rec.mma_ns = engine_ns - rec.combine_ns;
    rec.total_ns = apportion(class_prep, prep_scale) + engine_ns +
                   class_direct + other * items / runs.size();
    rec.start_ns = walls.start;
    rec.flops = items * 2ULL * key.m * key.n * key.k;
    rec.m = static_cast<std::uint32_t>(key.m);
    rec.n = static_cast<std::uint32_t>(key.n);
    rec.k = static_cast<std::uint32_t>(key.k);
    rec.tid = obs::current_thread_id();
    rec.batch_id = batch_id;
    rec.batch = static_cast<std::uint32_t>(items);
    rec.scheme = key.scheme;
    rec.backend = static_cast<std::uint8_t>(key.backend);
    rec.isa = static_cast<std::uint8_t>(simd::active_isa());
    rec.lookup = lookup;
    obs::record_call(rec);
  }
}

/// The one execute pipeline (DESIGN.md §13, §18), behind both
/// GemmPlan::execute (one item, batch_id 0) and
/// GemmContext::execute_grouped. Direct items run first, inline. Emulated
/// items are prepped (split into the packs) by one row routine,
/// prep_rows, then their blocks run through the tile kernels, in one of
/// three shapes:
///  * serial -- a one-thread pool, or total work under
///    kSmallGemmInlineThreshold: each item is prepped over its full row
///    range and run back-to-back on the calling thread, all on ONE
///    recycled workspace, so the hot packs stay cache-resident exactly
///    as in a loop of singles;
///  * pooled -- one workspace per item; every item's prep is cut into
///    PrepRows chunks that all run in one pool pass; then one item's
///    blocks go through parallel_for_2d with the pool's default grain,
///    while several items' blocks enter ONE flattened 1D stream whose
///    grain targets kMinChunkFlops per chunk, so tiny items coalesce and
///    large ones still fan out.
/// Every shape runs each block through the same tile kernel, so results
/// are bit-identical across shapes.
void run_items(GemmContext& ctx, std::span<ItemRun> runs,
               std::uint32_t batch_id, obs::PlanLookup lookup) {
  // Every item is checked before any runs, so a rejected one (a kept pack
  // that does not fit its plan throws) leaves D, the counters and the call
  // records as they were.
  for (const ItemRun& run : runs) {
    const ItemRun::Operands& op = run.op;
    EGEMM_EXPECTS(op.plan != nullptr && op.d != nullptr);
    check_operand(*op.plan, Side::kA, op.a);
    check_operand(*op.plan, Side::kB, op.b);
    const PlanKey& key = op.plan->key();
    EGEMM_EXPECTS(op.c == nullptr ||
                  (op.c->rows() == key.m && op.c->cols() == key.n));
    EGEMM_EXPECTS(op.a.matrix() != op.d && op.b.matrix() != op.d &&
                  op.c != op.d);
  }
  Walls walls;
  walls.start = obs::kEnabled ? obs::monotonic_ns() : 0;

  std::size_t emulated = 0;
  std::size_t blocks = 0;
  std::size_t prep_chunks = 0;
  std::uint64_t work = 0;  // multiply-adds
  for (ItemRun& run : runs) {
    const PlanKey& key = run.key();
    run.first = blocks;
    run.prep_first = prep_chunks;
    if (run.op.plan->direct()) {
      const obs::StageTimer direct(nullptr, &run.direct_ns);
      run_direct(run.op);
      continue;
    }
    ++emulated;
    // Prep fills the operands not passed as kept packs.
    if (run.op.a.kept() == nullptr) run.prep(Side::kA, run.op.a);
    if (run.op.b.kept() == nullptr) run.prep(Side::kB, run.op.b);
    prep_chunks += run.rows.chunks;
    run.row_blocks = (key.m + kTile - 1) / kTile;
    run.col_blocks = (key.n + kTile - 1) / kTile;
    blocks += run.blocks();
    work += key.m * key.n * key.k;
  }

  if (emulated > 0) {
    const obs::ScopedSpan span(batch_id == 0 ? "egemm_multiply"
                                             : "egemm_grouped");
    util::ThreadPool& pool = util::global_pool();
    if (pool.size() <= 1 || work < kSmallGemmInlineThreshold) {
      WorkspaceLease lease = ctx.lease_workspace();
      for (ItemRun& run : runs) {
        if (run.op.plan->direct()) continue;
        {
          const obs::StageTimer prep(nullptr, &walls.prep);
          run.ws = &*lease;
          size_item(run);
          prep_rows(run, 0, run.rows.end());
        }
        check_split_once(run);
        const obs::ScopedSpan mma("mma");
        EGEMM_COUNTER_ADD("egemm.tiles", run.blocks());
        run_linear(run, 0, run.blocks());
        walls.engine += run.engine_ns.load(std::memory_order_relaxed);
      }
    } else {
      {
        const obs::StageTimer prep(nullptr, &walls.prep);
        // Leases and sizing run serially, before the pass, so the pool
        // stays contention-free and the chunks never allocate.
        for (ItemRun& run : runs) {
          if (run.op.plan->direct()) continue;
          run.lease.emplace(ctx.lease_workspace());
          run.ws = &**run.lease;
          size_item(run);
        }
        prep_pass(runs, prep_chunks);
      }
      for (const ItemRun& run : runs) check_split_once(run);
      const obs::StageTimer engine(nullptr, &walls.engine);
      if (emulated == 1) {
        ItemRun& run = *std::ranges::find_if(
            runs, [](const ItemRun& r) { return !r.op.plan->direct(); });
        pool.parallel_for_2d(
            run.row_blocks, run.col_blocks, /*grain=*/0,
            [&run](std::size_t rb0, std::size_t rb1, std::size_t cb0,
                   std::size_t cb1) {
              const obs::ScopedSpan mma("mma");
              EGEMM_COUNTER_ADD("egemm.tiles", (rb1 - rb0) * (cb1 - cb0));
              run_stretch(run, [&](std::uint64_t* combine) {
                for (std::size_t rb = rb0; rb < rb1; ++rb) {
                  for (std::size_t cb = cb0; cb < cb1; ++cb) {
                    run_block(run, rb, cb, combine);
                  }
                }
              });
            });
      } else {
        const std::uint64_t avg_block_flops =
            blocks == 0 ? 1 : std::max<std::uint64_t>(1, 2 * work / blocks);
        const auto grain = static_cast<std::size_t>(
            std::max<std::uint64_t>(1, kMinChunkFlops / avg_block_flops));
        pool.parallel_for(blocks, grain, [&runs](std::size_t g0,
                                                 std::size_t g1) {
          const obs::ScopedSpan mma("mma");
          EGEMM_COUNTER_ADD("egemm.tiles", g1 - g0);
          // The last item starting at or before g0 owns it (items with no
          // blocks, direct ones included, share their successor's offset).
          auto it =
              std::ranges::upper_bound(runs, g0, {}, &ItemRun::first) - 1;
          for (std::size_t g = g0; g < g1; ++it) {
            const std::size_t end = std::min(g1, it->first + it->blocks());
            run_linear(*it, g - it->first, end - it->first);
            g = end;
          }
        });
      }
    }
  }
  if (obs::kEnabled) record_calls(runs, walls, batch_id, lookup);
}

}  // namespace

std::uint64_t debug_workspace_allocations() noexcept {
#ifndef NDEBUG
  return g_workspace_allocations.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

std::size_t PlanKeyHash::operator()(const PlanKey& key) const noexcept {
  auto mix = [](std::size_t h, std::uint64_t v) {
    return h ^ (static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ULL +
                (h << 6) + (h >> 2));
  };
  std::size_t h = 0;
  h = mix(h, key.m);
  h = mix(h, key.n);
  h = mix(h, key.k);
  h = mix(h, static_cast<std::uint64_t>(key.backend) << 8 |
                static_cast<std::uint8_t>(key.scheme));
  return h;
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

void Workspace::ensure(std::size_t m, std::size_t n, std::size_t k,
                       int planes, bool fill_a, bool fill_b) {
  const auto count = static_cast<std::size_t>(planes);
  const bool a_grew = fill_a && apack_.resize(count, m, k);
  const bool b_grew = fill_b && bpack_.resize(count, n, k);
  if (a_grew || b_grew) count_workspace_allocation();
}

// ---------------------------------------------------------------------------
// GemmPlan
// ---------------------------------------------------------------------------

GemmPlan::GemmPlan(const PlanKey& key) : key_(key) {
  if (key.scheme >= 0) {
    recipe_ = &core::scheme(static_cast<core::SchemeId>(key.scheme));
    // The tile-packed planes, the only copy the split writes.
    const std::size_t row_blocks = (key.m + kTile - 1) / kTile;
    const std::size_t col_blocks = (key.n + kTile - 1) / kTile;
    workspace_bytes_ = static_cast<std::size_t>(planes()) *
                       (row_blocks + col_blocks) * kTile * key.k *
                       sizeof(float);
  }
}

void GemmPlan::execute(GemmContext& ctx, const Operand& a, const Operand& b,
                       const Matrix* c, Matrix& d) const {
  // Consume the plan_for breadcrumb whether or not recording is on, so a
  // stale hit/miss never attaches to a later call through a held plan.
  obs::PlanLookup lookup = obs::PlanLookup::kUnknown;
  if (tl_last_plan == this) {
    lookup = tl_last_lookup;
    leave_breadcrumb(nullptr, obs::PlanLookup::kUnknown);
  }
  ItemRun run;
  run.op = {this, a, b, c, &d};
  run_items(ctx, {&run, 1}, /*batch_id=*/0, lookup);
}

Operand GemmPlan::keep(GemmContext& ctx, Side side, const Operand& source,
                       KeptPack& pack) const {
  EGEMM_EXPECTS(source.kept() == nullptr);
  check_operand(*this, side, source);
  if (direct()) return source;
  if (!pack.lease_) pack.lease_.emplace(ctx.lease_workspace());
  Workspace& ws = **pack.lease_;
  const bool a = side == Side::kA;
  ws.ensure(m(), n(), k(), planes(), a, !a);
  pack.pack_ = a ? &ws.packed_a() : &ws.packed_b();
  pack.split_ = split();
  ItemRun run;
  run.op.plan = this;
  (a ? run.op.a : run.op.b) = source;
  (a ? run.fill_a : run.fill_b) = pack.pack_;
  run.prep(side, source);
  prep_pass({&run, 1}, run.rows.chunks);
  check_split_once(run);
  return pack;
}

const PackedPlanes& KeptPack::pack() const noexcept {
  static const PackedPlanes empty;
  return pack_ != nullptr ? *pack_ : empty;
}

KernelTiming GemmPlan::timing(const tcsim::GpuSpec& spec) const {
  EGEMM_EXPECTS(key_.m > 0 && key_.n > 0 && key_.k > 0);
  const auto m = static_cast<std::uint64_t>(key_.m);
  const auto n = static_cast<std::uint64_t>(key_.n);
  const auto k = static_cast<std::uint64_t>(key_.k);
  switch (key_.backend) {
    case Backend::kEgemmTC: {
      EgemmOptions opts;
      opts.split = split();
      if (planes() != 3) return egemm_timing(m, n, k, spec, opts);
      // The 9-product three-way-split schedule on the Table 4 tiling. The
      // split pass writes three half planes instead of two, 1.5x the bytes
      // (the main loop's global traffic is handled by the stream shape).
      opts.emulation_instructions = 9;
      KernelTiming timing = egemm_timing(m, n, k, spec, opts);
      timing.seconds += timing.split_pass_seconds * 0.5;
      timing.split_pass_seconds *= 1.5;
      timing.tflops = gemm_tflops(m, n, k, timing.seconds);
      return timing;
    }
    default:
      return time_gemm(key_.backend, m, n, k, spec);
  }
}

// ---------------------------------------------------------------------------
// GemmContext
// ---------------------------------------------------------------------------

GemmContext::GemmContext(std::size_t plan_capacity)
    : capacity_(plan_capacity) {
  EGEMM_GAUGE_SET("gemm.plan.cache.capacity",
                  static_cast<std::int64_t>(capacity_));
}

std::shared_ptr<const GemmPlan> GemmContext::plan(Backend backend,
                                                  std::size_t m, std::size_t n,
                                                  std::size_t k) {
  switch (backend) {
    case Backend::kCublasFp32:
    case Backend::kSdkFp32:
    case Backend::kDekker:
      return plan_for(plan_key(backend, m, n, k, -1));
    case Backend::kCublasTcEmulation:
      // Alg. 1 via 4 separate vendor GEMM calls: round-2term's terms, in
      // separate passes.
      return plan_for(plan_key(
          backend, m, n, k, static_cast<int>(core::SchemeId::kRound2)));
    case Backend::kEgemmTC:
      return plan_scheme(core::SchemeId::kRound2, m, n, k);
    case Backend::kCublasTcHalf:
      return plan_scheme(core::SchemeId::kHalf, m, n, k);
    case Backend::kMarkidis:
      return plan_scheme(core::SchemeId::kMarkidis, m, n, k);
  }
  EGEMM_EXPECTS(!"invalid Backend");
  return nullptr;
}

std::shared_ptr<const GemmPlan> GemmContext::plan_scheme(core::SchemeId scheme,
                                                         std::size_t m,
                                                         std::size_t n,
                                                         std::size_t k) {
  EGEMM_EXPECTS(static_cast<std::size_t>(scheme) < core::kSchemeCount);
  return plan_for(
      plan_key(rung_backend(scheme), m, n, k, static_cast<int>(scheme)));
}

std::shared_ptr<const GemmPlan> GemmContext::plan_for(const PlanKey& key) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      EGEMM_COUNTER_ADD("gemm.plan.hit", 1);
      leave_breadcrumb(lru_.front().plan.get(), obs::PlanLookup::kHit);
      return lru_.front().plan;
    }
  }

  std::shared_ptr<const GemmPlan> created;
  std::uint64_t build_ns = 0;
  {
    const obs::StageTimer timer("plan", obs::kEnabled ? &build_ns : nullptr);
    created = std::shared_ptr<const GemmPlan>(new GemmPlan(key));
  }
  EGEMM_LATENCY_RECORD("gemm.plan.build.latency", build_ns);

  const std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  EGEMM_COUNTER_ADD("gemm.plan.miss", 1);
  // A racing thread may have built the same plan meanwhile; either copy is
  // interchangeable (plans are immutable), so keep the cached one. The
  // caller still paid a plan build, so the breadcrumb says miss either way.
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    leave_breadcrumb(lru_.front().plan.get(), obs::PlanLookup::kMiss);
    return lru_.front().plan;
  }
  lru_.push_front(CacheEntry{key, created});
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    EGEMM_COUNTER_ADD("gemm.plan.cache.evictions", 1);
  }
  EGEMM_GAUGE_SET("gemm.plan.cache.size",
                  static_cast<std::int64_t>(lru_.size()));
  leave_breadcrumb(created.get(), obs::PlanLookup::kMiss);
  return created;
}

void GemmContext::execute_grouped(std::span<const GroupedGemm> items) {
  if (items.empty()) return;
  expect_unchained(items);
  EGEMM_COUNTER_ADD("gemm.batch.calls", 1);
  EGEMM_COUNTER_ADD("gemm.batch.items",
                    static_cast<std::int64_t>(items.size()));
  std::vector<ItemRun> runs(items.size());
  for (std::size_t j = 0; j < items.size(); ++j) {
    const GroupedGemm& item = items[j];
    runs[j].op = {item.plan.get(), item.a, item.b, item.c, item.d};
  }
  run_items(*this, runs,
            g_batch_counter.fetch_add(1, std::memory_order_relaxed) + 1,
            obs::PlanLookup::kUnknown);
}

WorkspaceLease GemmContext::lease_workspace() {
  std::unique_ptr<Workspace> ws;
  {
    const std::lock_guard<std::mutex> lock(ws_mutex_);
    if (!free_workspaces_.empty()) {
      ws = std::move(free_workspaces_.back());
      free_workspaces_.pop_back();
    }
  }
  if (!ws) ws = std::make_unique<Workspace>();
  return WorkspaceLease(this, std::move(ws));
}

void GemmContext::recycle(std::unique_ptr<Workspace> ws) {
  const std::lock_guard<std::mutex> lock(ws_mutex_);
  free_workspaces_.push_back(std::move(ws));
}

std::uint64_t GemmContext::plan_hits() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t GemmContext::plan_misses() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t GemmContext::plan_evictions() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::size_t GemmContext::cached_plans() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::size_t GemmContext::pooled_workspaces() const noexcept {
  const std::lock_guard<std::mutex> lock(ws_mutex_);
  return free_workspaces_.size();
}

WorkspaceLease::WorkspaceLease(WorkspaceLease&& other) noexcept
    : ctx_(std::exchange(other.ctx_, nullptr)), ws_(std::move(other.ws_)) {}

WorkspaceLease::~WorkspaceLease() {
  if (ctx_ != nullptr && ws_ != nullptr) ctx_->recycle(std::move(ws_));
}

GemmContext& default_context() {
  static GemmContext ctx;
  return ctx;
}

obs::CallJsonNames call_json_names() {
  obs::CallJsonNames names;
  names.scheme = [](std::int8_t s) -> const char* {
    if (s < 0) return "direct";
    return static_cast<std::size_t>(s) < core::kSchemeCount
               ? core::scheme_name(static_cast<core::SchemeId>(s))
               : "?";
  };
  names.backend = [](std::uint8_t b) -> const char* {
    return b <= static_cast<std::uint8_t>(Backend::kDekker)
               ? backend_name(static_cast<Backend>(b))
               : "?";
  };
  names.isa = [](std::uint8_t i) -> const char* {
    return i < static_cast<std::uint8_t>(simd::kIsaLevelCount)
               ? simd::isa_name(static_cast<simd::IsaLevel>(i))
               : "?";
  };
  return names;
}

}  // namespace egemm::gemm
