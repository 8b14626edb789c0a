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
#include "gemm/regions.hpp"
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
/// over the pre-packed planes (panel `a_panel` of A's pack and `b_panel`
/// of B's: the tile's row and column block, counted from the first block
/// each pack holds), so the SIMD variants keep the accumulator in
/// registers across the entire k extent. Per output element
/// the operation sequence is identical to the scalar oracle's
/// (verify::reference_execute), so the result is bit-identical. The
/// register tile starts from C's tile (or zeros), and the store writes
/// every element of D's tile; writeback time is added to a non-null
/// `combine`.
void packed_tile(const Matrix* c, Matrix& d, const PackedPlanes& apack,
                 const PackedPlanes& bpack, std::size_t k,
                 std::span<const core::SchemeTerm> terms, ComboOrder order,
                 std::size_t rb, std::size_t cb, std::size_t a_panel,
                 std::size_t b_panel, std::uint64_t* combine) {
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
    a_blocks[t] =
        apack.block(static_cast<std::size_t>(terms[t].a_depth), a_panel);
    b_blocks[t] =
        bpack.block(static_cast<std::size_t>(terms[t].b_depth), b_panel);
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
  EGEMM_EXPECTS(op.rows() == (lane_rows ? lanes : plan.k()) &&
                op.cols() == (lane_rows ? plan.k() : lanes));
}

/// One GEMM of an execute: its operands, how prep reads them, the packs
/// its regions read whole, its cut, and the stage weights its call record
/// is built from. GemmPlan::keep runs one too, with a single operand.
struct ItemRun {
  struct Operands {
    const GemmPlan* plan = nullptr;
    Operand a;
    Operand b;
    const Matrix* c = nullptr;
    Matrix* d = nullptr;
  } op;
  // How prep reads the operands it splits (those not passed as kept
  // packs): the orientation of each source's rows.
  std::optional<PackSource> a_source;
  std::optional<PackSource> b_source;
  // Each operand's whole pack, when it has one before the region pass: a
  // kept pack, or the whole fill's. A region splits only the operands
  // without one.
  const PackedPlanes* a_pack = nullptr;
  const PackedPlanes* b_pack = nullptr;
  std::size_t row_blocks = 0;
  std::size_t col_blocks = 0;
  /// The item's cut: each of grid.rows row ranges meets each of grid.cols
  /// column ranges in one region (1 x 1 for an item filled whole).
  RegionGrid grid;
  // Stage weights in ns (zero with observability compiled out), summed
  // over the threads that ran the item's prep and tiles: prep_ns is all
  // of its prep (split into the packs), engine_ns all of its tile
  // stretches; direct_ns is a direct backend's kernel on the calling
  // thread. Regions and chunks of one item run on many pool threads at
  // once, so their weights are atomic.
  std::atomic<std::uint64_t> prep_ns{0};
  std::atomic<std::uint64_t> split_ns{0};
  std::atomic<std::uint64_t> pack_ns{0};
  std::uint64_t direct_ns = 0;
  std::atomic<std::uint64_t> engine_ns{0};
  std::atomic<std::uint64_t> combine_ns{0};
  /// Elements the item's prep split (debug builds only).
  std::atomic<std::uint64_t> split_elements{0};

  const PlanKey& key() const noexcept { return op.plan->key(); }

  /// Points each operand at its kept pack, or prep at its source.
  void read_sources() noexcept {
    a_pack = op.a.kept() != nullptr ? &op.a.kept()->pack() : nullptr;
    b_pack = op.b.kept() != nullptr ? &op.b.kept()->pack() : nullptr;
    if (a_pack == nullptr) a_source = source_of(Side::kA, op.a.trans());
    if (b_pack == nullptr) b_source = source_of(Side::kB, op.b.trans());
  }

  /// Elements prep must split for the cut taken: each split operand's rows
  /// once per region range across them (A's per column range, B's per row
  /// range), a transposing fill's whole 16-lane panels (its last panel's
  /// lanes past the extent split from zeros).
  std::uint64_t expected_split() const noexcept {
    const PlanKey& k = key();
    const auto once = [&k](const std::optional<PackSource>& source,
                           std::size_t lanes) -> std::uint64_t {
      if (!source) return 0;
      const std::size_t padded = *source == PackSource::kLaneRows
                                     ? (lanes + kTile - 1) / kTile * kTile
                                     : lanes;
      return static_cast<std::uint64_t>(padded) * k.k;
    };
    return grid.cols * once(a_source, k.m) + grid.rows * once(b_source, k.n);
  }
};

/// Wall segments of one execute on the calling thread, which the records
/// apportion by the item weights.
struct Walls {
  std::uint64_t start = 0;
  std::uint64_t prep = 0;
  std::uint64_t engine = 0;
};

/// A direct plan's kernel. The binary32 baselines read whole row-major
/// operands as given, so a transposed operand or a row range is copied
/// first.
void run_direct(const ItemRun::Operands& op) {
  Matrix a_copy;
  Matrix b_copy;
  const auto as_given = [](const Operand& x, Matrix& copy) -> const Matrix& {
    const Matrix& stored = *x.matrix();
    const bool whole = x.rows() == stored.rows();
    Matrix range;
    if (!whole) {
      range.resize(x.rows(), x.cols());
      std::copy_n(x.data(), range.size(), range.data().begin());
    }
    if (x.trans() == Transpose::kTranspose) {
      transpose_into(whole ? stored : range, copy);
      return copy;
    }
    if (whole) return stored;
    copy = std::move(range);
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

/// Readies an emulated item: its sources, its block counts, its output's
/// size, and the execute counters.
void begin_item(ItemRun& run) {
  const GemmPlan& plan = *run.op.plan;
  run.read_sources();
  run.row_blocks = (plan.m() + kTile - 1) / kTile;
  run.col_blocks = (plan.n() + kTile - 1) / kTile;
  run.op.d->resize(plan.m(), plan.n());
  EGEMM_COUNTER_ADD("egemm.calls", 1);
  count_scheme_execute(*plan.scheme_id());
}

/// Source rows [r0, r1) of one operand into `pack`, its lanes counted
/// from `lane0` of the source (a region's first row or column).
struct FillRange {
  PackedPlanes* pack = nullptr;  ///< null: nothing to fill
  std::size_t r0 = 0;
  std::size_t r1 = 0;
  std::size_t lane0 = 0;
};

/// Splits `range` of `side`'s source per the plan's recipe, through the
/// transposing or the copying fill as the source's rows are lanes or k,
/// counting the elements in the run's own count.
void fill(ItemRun& run, Side side, const FillRange& range,
          std::uint64_t* split_ns) {
  const Operand& op = side == Side::kA ? run.op.a : run.op.b;
  const PackSource source = side == Side::kA ? *run.a_source : *run.b_source;
  const std::size_t ld = op.cols();
  const float* src =
      op.data() + (source == PackSource::kLaneRows ? range.lane0 * ld
                                                   : range.lane0);
  range.pack->fill_rows(
      source, range.r0, range.r1, src, ld,
      [&run, split_ns](const float* in, std::size_t count,
                       float* const* out) {
        if constexpr (kCountSplits) {
          run.split_elements.fetch_add(count, std::memory_order_relaxed);
        }
        split_run(*run.op.plan, in, count, out, split_ns);
      });
}

/// One stretch of prep, the O(N^2) data-split pass (it runs on CUDA cores
/// in the real kernel): A's range, then B's, split straight into their
/// packs. Every step is element-wise, so any cut gives the same pack bits.
/// The "split" span covers A's fill, transposes included; the "pack" span
/// covers B's, whose split time the record still counts as split.
void prep(ItemRun& run, const FillRange& a, const FillRange& b) {
  std::uint64_t total = 0;
  std::uint64_t split_ns = 0;
  std::uint64_t b_fill = 0;
  std::uint64_t b_split = 0;
  {
    const obs::StageTimer stretch(nullptr, &total);
    if (a.pack != nullptr && a.r0 < a.r1) {
      const obs::StageTimer timer("split", &split_ns);
      fill(run, Side::kA, a, nullptr);
    }
    if (b.pack != nullptr && b.r0 < b.r1) {
      const obs::StageTimer timer("pack", &b_fill);
      fill(run, Side::kB, b, &b_split);
    }
  }
  // B's strip splits ran inside b_fill's window.
  run.prep_ns.fetch_add(total, std::memory_order_relaxed);
  run.split_ns.fetch_add(split_ns + b_split, std::memory_order_relaxed);
  run.pack_ns.fetch_add(b_fill - b_split, std::memory_order_relaxed);
}

/// One operand's pass of the whole fill: its source rows cut into fill
/// units by parallel_for's default split. A lane-rows source's unit is a
/// 16-lane panel, as the transposing fill starts on panel edges; a k-rows
/// source's is a k row, as the copying fill cuts anywhere.
void fill_operand(ItemRun& run, Side side, PackedPlanes& pack) {
  const GemmPlan& plan = *run.op.plan;
  const bool a = side == Side::kA;
  const bool lane_rows =
      *(a ? run.a_source : run.b_source) == PackSource::kLaneRows;
  const std::size_t rows = lane_rows ? (a ? plan.m() : plan.n()) : plan.k();
  const std::size_t unit = lane_rows ? kPackTile : 1;
  // One capture, so the pool's std::function holds the body inline.
  const struct {
    ItemRun& run;
    bool a;
    std::size_t unit;
    FillRange whole;
  } pass{run, a, unit, {&pack, 0, rows, 0}};
  util::global_pool().parallel_for(
      (rows + unit - 1) / unit, [&pass](std::size_t u0, std::size_t u1) {
        FillRange range = pass.whole;
        range.r0 = u0 * pass.unit;
        range.r1 = std::min(range.r1, u1 * pass.unit);
        if (pass.a) {
          prep(pass.run, range, {});
        } else {
          prep(pass.run, {}, range);
        }
      });
}

/// The whole fill, GemmPlan::keep's and a large item's before its region
/// pass: splits each operand prep reads into `ws`, sized to the plan, in
/// one pool pass per operand (A's, then B's), and points the item at
/// those packs. The split is element-wise, so the cut changes no bit.
void fill_whole(ItemRun& run, Workspace& ws) {
  const GemmPlan& plan = *run.op.plan;
  ws.ensure(plan.m(), plan.n(), plan.k(), plan.planes(),
            run.a_source.has_value(), run.b_source.has_value());
  if (run.a_source) {
    fill_operand(run, Side::kA, ws.packed_a());
    run.a_pack = &ws.packed_a();
  }
  if (run.b_source) {
    fill_operand(run, Side::kB, ws.packed_b());
    run.b_pack = &ws.packed_b();
  }
}

/// Debug builds: each input element must be split exactly as often as the
/// item's cut reads it -- once per execute for a whole fill and one-region
/// items; the plane cache is the point of the packed engine, so
/// re-splitting anywhere else is a bug -- and a kept pack's not at all.
/// The count is the run's own, so concurrent executes check exactly.
void check_split_once(const ItemRun& run) {
  if constexpr (kCountSplits) {
    EGEMM_ENSURES(run.split_elements.load(std::memory_order_relaxed) ==
                  run.expected_split());
  }
}

/// The packs a stretch of tiles reads, each with the first row (A) or
/// column (B) block it holds: 0 for a whole pack, the region's first block
/// for a region's own.
struct TilePacks {
  const PackedPlanes* a = nullptr;
  std::size_t a_first = 0;
  const PackedPlanes* b = nullptr;
  std::size_t b_first = 0;
};

/// Runs the item's tiles [rb0, rb1) x [cb0, cb1) under one "mma" span.
/// The stretch's wall time and its writeback time join the item's engine
/// weights.
void run_tiles(ItemRun& run, const TilePacks& packs, const TileBlock& tiles) {
  const obs::ScopedSpan mma("mma");
  EGEMM_COUNTER_ADD("egemm.tiles",
                    (tiles.rb1 - tiles.rb0) * (tiles.cb1 - tiles.cb0));
  const GemmPlan& plan = *run.op.plan;
  std::uint64_t wall = 0;
  std::uint64_t combine = 0;
  {
    const obs::StageTimer stretch(nullptr, &wall);
    for (std::size_t rb = tiles.rb0; rb < tiles.rb1; ++rb) {
      for (std::size_t cb = tiles.cb0; cb < tiles.cb1; ++cb) {
        packed_tile(run.op.c, *run.op.d, *packs.a, *packs.b, plan.k(),
                    plan.terms(), plan.order(), rb, cb, rb - packs.a_first,
                    cb - packs.b_first, &combine);
      }
    }
  }
  run.engine_ns.fetch_add(wall, std::memory_order_relaxed);
  run.combine_ns.fetch_add(combine, std::memory_order_relaxed);
}

/// One region of an item: row blocks [rb0, rb1) by column blocks [cb0,
/// cb1), and its multiply-adds.
struct Region {
  ItemRun* run = nullptr;
  TileBlock tiles;
  std::uint64_t work = 0;
};

/// The source rows a region's pack of one operand reads: its lanes' rows
/// of a lane-rows source, every k row of a k-rows one (from lane0 on).
FillRange region_range(PackedPlanes& pack,
                       const std::optional<PackSource>& source,
                       std::size_t lane0, std::size_t lanes, std::size_t k) {
  if (!source) return {};
  return {&pack, 0, *source == PackSource::kLaneRows ? lanes : k, lane0};
}

/// Runs one region on the thread that claimed it: splits the A rows and B
/// columns it reads (unless the item has their whole pack) into `ws`,
/// sized to the region, then runs its tiles from there.
void run_region(const Region& region, Workspace& ws) {
  ItemRun& run = *region.run;
  const TileBlock& t = region.tiles;
  const bool a_whole = run.a_pack != nullptr;
  const bool b_whole = run.b_pack != nullptr;
  if (!a_whole || !b_whole) {
    const GemmPlan& plan = *run.op.plan;
    const std::size_t i0 = t.rb0 * kTile;
    const std::size_t rows = std::min(plan.m(), t.rb1 * kTile) - i0;
    const std::size_t j0 = t.cb0 * kTile;
    const std::size_t cols = std::min(plan.n(), t.cb1 * kTile) - j0;
    ws.ensure(rows, cols, plan.k(), plan.planes(), !a_whole, !b_whole);
    prep(run, region_range(ws.packed_a(), run.a_source, i0, rows, plan.k()),
         region_range(ws.packed_b(), run.b_source, j0, cols, plan.k()));
  }
  run_tiles(run,
            {a_whole ? run.a_pack : &ws.packed_a(), a_whole ? 0 : t.rb0,
             b_whole ? run.b_pack : &ws.packed_b(), b_whole ? 0 : t.cb0},
            t);
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

/// `grid` clipped to the item's blocks, so no region is empty; an item
/// with no output tiles has no regions.
RegionGrid fit_grid(RegionGrid grid, const ItemRun& run) {
  if (run.row_blocks == 0 || run.col_blocks == 0) return {0, 0};
  return {std::clamp<std::size_t>(grid.rows, 1, run.row_blocks),
          std::clamp<std::size_t>(grid.cols, 1, run.col_blocks)};
}

}  // namespace

/// The one door to a context's per-worker region workspaces, which
/// GemmContext keeps private.
struct RegionWorkspaces {
  static std::span<Workspace> of(GemmContext& ctx, std::size_t workers) {
    return ctx.worker_workspaces(workers);
  }
};

namespace {

/// The region pass, the one schedule: every emulated item is cut into
/// regions, each run on one thread -- splitting what it reads, then
/// multiplying it -- in one pool pass, or back-to-back on the caller when
/// the call runs inline. One pooled item above kRegionMaxWork first fills
/// its packs whole (prep's wall) and is cut by tile_blocks, in row-major
/// order; other items by region_grid (or `forced`), largest first.
void run_regions(GemmContext& ctx, std::span<ItemRun> runs,
                 std::size_t emulated, std::uint64_t work,
                 const RegionGrid* forced, Walls& walls) {
  util::ThreadPool& pool = util::global_pool();
  const std::size_t threads = pool.size();
  const bool pooled = threads > 1 && work >= kSmallGemmInlineThreshold;
  const std::size_t share = (threads + emulated - 1) / emulated;
  std::vector<Region> regions;
  // The largest region's packs, which every slot workspace is sized to.
  std::size_t a_floats = 0;
  std::size_t b_floats = 0;
  std::size_t planes = 0;
  // The calling thread's workspace: the whole fill's, or the one it splits
  // every region it runs itself into.
  std::optional<WorkspaceLease> lease;
  const auto caller = [&]() -> Workspace& {
    if (!lease) lease.emplace(ctx.lease_workspace());
    return **lease;
  };
  const bool whole = forced == nullptr && emulated == 1 &&
                     work > kRegionMaxWork && threads > 1;
  ItemRun* const filled = &*std::ranges::find_if(
      runs, [](const ItemRun& r) { return !r.op.plan->direct(); });
  TileBlocks blocks;
  if (whole) {
    const obs::StageTimer prep(nullptr, &walls.prep);
    fill_whole(*filled, caller());
    blocks = tile_blocks(filled->row_blocks, filled->col_blocks, threads);
  }
  for (ItemRun& run : runs) {
    if (run.op.plan->direct() || whole) continue;
    const PlanKey& key = run.key();
    const bool split_up =
        pooled && key.m * key.n * key.k >= kSmallGemmInlineThreshold;
    run.grid = fit_grid(
        forced != nullptr ? *forced
                          : region_grid(key.m, key.n, split_up ? share : 1),
        run);
    const RegionGrid& grid = run.grid;
    for (std::size_t i = 0; i < grid.rows; ++i) {
      const std::size_t rb0 = i * run.row_blocks / grid.rows;
      const std::size_t rb1 = (i + 1) * run.row_blocks / grid.rows;
      const std::size_t rows = std::min(key.m, rb1 * kTile) - rb0 * kTile;
      if (run.a_source) {
        a_floats = std::max(a_floats, (rb1 - rb0) * kTile * key.k);
      }
      for (std::size_t j = 0; j < grid.cols; ++j) {
        const std::size_t cb0 = j * run.col_blocks / grid.cols;
        const std::size_t cb1 = (j + 1) * run.col_blocks / grid.cols;
        const std::size_t cols = std::min(key.n, cb1 * kTile) - cb0 * kTile;
        if (run.b_source) {
          b_floats = std::max(b_floats, (cb1 - cb0) * kTile * key.k);
        }
        regions.push_back({&run, {rb0, rb1, cb0, cb1},
                           static_cast<std::uint64_t>(rows) * cols * key.k});
      }
    }
    planes = std::max(planes, static_cast<std::size_t>(run.op.plan->planes()));
  }

  std::uint64_t pass = 0;
  {
    const obs::StageTimer timer(nullptr, &pass);
    if (pooled) {
      // Claimed largest first, so the pass ends on small regions; an item
      // filled whole keeps its blocks' row-major order.
      if (!whole) {
        std::ranges::sort(regions, std::ranges::greater{}, &Region::work);
      }
      // A worker runs its regions in the context's workspace for its slot
      // (only a pass that won the pool has workers), the calling thread in
      // its own lease. Each grows to the pass's largest region, so a warm
      // repeat allocates nothing whichever thread claims which region.
      // An item filled whole splits nothing: its regions all name the
      // fill's workspace and leave it as it is.
      const std::span<Workspace> workers =
          whole ? std::span<Workspace>{}
                : RegionWorkspaces::of(ctx, threads - 1);
      pool.for_each_task(whole ? blocks.count : regions.size(),
                         [&](std::size_t task, std::size_t slot) {
        Workspace& ws = whole || slot == 0 || slot == threads
                            ? caller()
                            : workers[slot - 1];
        ws.reserve(planes, a_floats, b_floats);
        run_region(whole ? Region{filled, blocks.block(task)} : regions[task],
                   ws);
      });
    } else {
      for (const Region& region : regions) run_region(region, caller());
    }
  }
  for (const ItemRun& run : runs) {
    if (!run.op.plan->direct()) check_split_once(run);
  }
  // The pass's wall, apportioned between prep and tiles by their weights;
  // an item filled whole has no prep in it.
  std::uint64_t prep = 0;
  std::uint64_t engine = 0;
  for (const ItemRun& run : runs) {
    prep += run.prep_ns.load(std::memory_order_relaxed);
    engine += run.engine_ns.load(std::memory_order_relaxed);
  }
  if (whole) {
    walls.engine = pass;
  } else if (prep + engine > 0) {
    walls.prep = static_cast<std::uint64_t>(
        static_cast<double>(pass) * static_cast<double>(prep) /
        static_cast<double>(prep + engine));
    walls.engine = pass - walls.prep;
  }
}

/// The one execute pipeline (DESIGN.md §13, §18), behind GemmPlan::execute
/// (one item, batch_id 0) and GemmContext::execute_grouped. Direct items
/// run first, inline. Emulated items then run as one region pass
/// (run_regions): each item is cut into regions of output tiles (one when
/// it is under kSmallGemmInlineThreshold; the pool's size shared out over
/// the call's items otherwise), and the thread that runs a region splits
/// the A rows and B columns it reads into its own workspace and multiplies
/// them there, unless a single pooled item above kRegionMaxWork filled its
/// packs whole first. Every region runs each tile through the same tile
/// kernel over packs of the same bits, so results are bit-identical across
/// cuts. `forced` (tests only) replaces the region rule's grid.
void run_items(GemmContext& ctx, std::span<ItemRun> runs,
               std::uint32_t batch_id, obs::PlanLookup lookup,
               const RegionGrid* forced = nullptr) {
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
  std::uint64_t work = 0;  // multiply-adds
  for (ItemRun& run : runs) {
    if (run.op.plan->direct()) {
      const obs::StageTimer direct(nullptr, &run.direct_ns);
      run_direct(run.op);
      continue;
    }
    ++emulated;
    const PlanKey& key = run.key();
    work += key.m * key.n * key.k;
    begin_item(run);
  }

  if (emulated > 0) {
    const obs::ScopedSpan span(batch_id == 0 ? "egemm_multiply"
                                             : "egemm_grouped");
    run_regions(ctx, runs, emulated, work, forced, walls);
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

void Workspace::reserve(std::size_t planes, std::size_t a_floats,
                        std::size_t b_floats) {
  const bool a_grew = a_floats > 0 && apack_.reserve(planes, a_floats);
  const bool b_grew = b_floats > 0 && bpack_.reserve(planes, b_floats);
  if (a_grew || b_grew) count_workspace_allocation();
}

RegionGrid region_grid(std::size_t m, std::size_t n, std::size_t regions) {
  const std::size_t row_blocks = (m + kTile - 1) / kTile;
  const std::size_t col_blocks = (n + kTile - 1) / kTile;
  if (row_blocks == 0 || col_blocks == 0) return {0, 0};
  for (std::size_t count = regions; count > 1; --count) {
    std::optional<RegionGrid> best;
    double best_reads = 0.0;
    for (std::size_t p = 1; p <= std::min(count, row_blocks); ++p) {
      const std::size_t q = count / p;
      if (p * q != count || q > col_blocks) continue;
      const double reads = static_cast<double>(m) / static_cast<double>(p) +
                           static_cast<double>(n) / static_cast<double>(q);
      if (!best || reads < best_reads) {
        best = RegionGrid{p, q};
        best_reads = reads;
      }
    }
    if (best) return *best;
  }
  return {1, 1};
}

TileBlocks tile_blocks(std::size_t row_tiles, std::size_t col_tiles,
                       std::size_t threads) {
  if (row_tiles == 0 || col_tiles == 0) return {};
  const std::size_t tiles = row_tiles * col_tiles;
  const std::size_t grain =
      std::clamp<std::size_t>(tiles / (threads * 8), 1, tiles);
  // Blocks as square as the grain allows, clipped to the grid: a square
  // block maximizes the number of independent blocks on skewed grids while
  // keeping per-block working sets compact.
  std::size_t cols = std::min(
      col_tiles, static_cast<std::size_t>(
                     std::ceil(std::sqrt(static_cast<double>(grain)))));
  const std::size_t rows =
      std::min(row_tiles, std::max<std::size_t>(1, grain / cols));
  // Degenerate grids: spend the whole grain along the long axis.
  if (rows == row_tiles) {
    cols = std::min(col_tiles, std::max<std::size_t>(1, grain / rows));
  }
  const std::size_t across = (col_tiles + cols - 1) / cols;
  const std::size_t down = (row_tiles + rows - 1) / rows;
  return {row_tiles, col_tiles, rows, cols, across, down * across};
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

void execute_on_grid(GemmContext& ctx, const GemmPlan& plan,
                     const Operand& a, const Operand& b, const Matrix* c,
                     Matrix& d, RegionGrid grid) {
  ItemRun run;
  run.op = {&plan, a, b, c, &d};
  run_items(ctx, {&run, 1}, /*batch_id=*/0, obs::PlanLookup::kUnknown, &grid);
}

Operand GemmPlan::keep(GemmContext& ctx, Side side, const Operand& source,
                       KeptPack& pack) const {
  EGEMM_EXPECTS(source.kept() == nullptr);
  check_operand(*this, side, source);
  if (direct()) return source;
  if (!pack.lease_) pack.lease_.emplace(ctx.lease_workspace());
  Workspace& ws = **pack.lease_;
  const bool a = side == Side::kA;
  ItemRun run;
  run.op.plan = this;
  (a ? run.op.a : run.op.b) = source;
  (a ? run.a_source : run.b_source) = source_of(side, source.trans());
  fill_whole(run, ws);
  check_split_once(run);
  pack.pack_ = a ? &ws.packed_a() : &ws.packed_b();
  pack.split_ = split();
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

std::span<Workspace> GemmContext::worker_workspaces(std::size_t workers) {
  const std::lock_guard<std::mutex> lock(ws_mutex_);
  if (worker_workspaces_.empty()) worker_workspaces_.resize(workers);
  EGEMM_EXPECTS(worker_workspaces_.size() == workers);
  return worker_workspaces_;
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
