#include "gemm/plan.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "gemm/baselines.hpp"
#include "model/analytic_model.hpp"
#include "model/solver.hpp"
#include "model/tuning_cache.hpp"
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
/// the emulation recipe (combos interleave per slab) and stays at the
/// semantic kTile.
constexpr int kSeparateSlab = 512;
static_assert(kSeparateSlab % 2 == 0);

/// One 16x16 output tile of the packed engine (DESIGN.md §10): the whole
/// combo x k-slab recipe runs in ONE dispatched tcsim::mma_tile_recipe call
/// over the workspace's pre-packed planes, so the SIMD variants keep the
/// accumulator in registers across the entire k extent. Per output element
/// the operation sequence is identical to the scalar oracle's
/// (verify::reference_execute), so the result is bit-identical. `d`
/// arrives initialized with C (or zeros); writeback time is added to a
/// non-null `combine`.
void packed_tile(Matrix& d, const PackedPlanesA& apack,
                 const PackedPlanesB& bpack, std::size_t k,
                 std::span<const PlaneCombo> combos, ComboOrder order,
                 std::size_t rb, std::size_t cb, std::uint64_t* combine) {
  const std::size_t m = d.rows();
  const std::size_t n = d.cols();
  const bool fused = order == ComboOrder::kFusedPerTile;
  const int k_slab = fused ? static_cast<int>(kTile) : kSeparateSlab;
  const auto ncombos = static_cast<int>(combos.size());
  const std::size_t i0 = rb * kTile;
  const std::size_t mt = std::min(kTile, m - i0);
  const std::size_t j0 = cb * kTile;
  const std::size_t nt = std::min(kTile, n - j0);
  const float* a_blocks[kMaxPlanCombos];
  const float* b_blocks[kMaxPlanCombos];
  for (int ci = 0; ci < ncombos; ++ci) {
    a_blocks[ci] = apack.block(
        static_cast<std::size_t>(combos[static_cast<std::size_t>(ci)].a_plane),
        rb);
    b_blocks[ci] = bpack.block(
        static_cast<std::size_t>(combos[static_cast<std::size_t>(ci)].b_plane),
        cb);
    // Warm the first lines of each combo's B block; the recipe kernel
    // prefetches ahead within each stream but cannot see across the combo
    // boundary.
    __builtin_prefetch(b_blocks[ci]);
  }
  // Full 16x16 accumulator; lanes past (mt, nt) compute against the packs'
  // zero padding and are never copied back.
  alignas(64) float acc[kTile][kTile] = {};
  for (std::size_t i = 0; i < mt; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      acc[i][j] = d.at(i0 + i, j0 + j);
    }
  }
  if (k > 0) {  // zero-extent K: the tile is the C passthrough
    tcsim::mma_tile_recipe(&acc[0][0], a_blocks, b_blocks, ncombos, k,
                           static_cast<int>(k), k_slab, fused);
  }
  const obs::StageTimer timer("combine", combine);
  for (std::size_t i = 0; i < mt; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      d.at(i0 + i, j0 + j) = canonical_store(acc[i][j]);
    }
  }
}

/// Grows `m` to (rows x cols), counting an actual storage growth.
void grow_matrix(Matrix& m, std::size_t rows, std::size_t cols) {
  if (rows * cols > m.capacity()) count_workspace_allocation();
  m.resize(rows, cols);
}

/// The analytic solver's pick over the T4 budget (reproduces Table 4
/// exactly, so this is behavior-neutral by the solver's own tests).
const TileConfig& solver_default_tile() {
  static const TileConfig solved = [] {
    const model::SolverResult result =
        model::solve(model::budget_from_spec(tcsim::tesla_t4()));
    return result.found ? result.best : table4_config();
  }();
  return solved;
}

/// True when `tile` is in the solver's feasible set. A tuned tile is
/// applied only if the analytic model admits it, so a hand-edited tuning
/// file can never smuggle an unschedulable tiling into the plans (debug
/// builds lint every distinct tiling).
bool tile_is_feasible(const TileConfig& tile) {
  static const std::vector<TileConfig> feasible = [] {
    const model::SolverResult result =
        model::solve(model::budget_from_spec(tcsim::tesla_t4()));
    std::vector<TileConfig> tiles;
    tiles.reserve(result.feasible.size());
    for (const model::SolverCandidate& candidate : result.feasible) {
      tiles.push_back(candidate.config);
    }
    return tiles;
  }();
  return std::find(feasible.begin(), feasible.end(), tile) != feasible.end();
}

/// Tile resolution for direct backends and explicit tiles: the analytic
/// solver applies whenever the caller left the tile at the paper's
/// default; an explicitly chosen tile is honored as-is.
TileConfig analytic_tile(const TileConfig& requested) {
  return requested == table4_config() ? solver_default_tile() : requested;
}

/// Tile + scheduler-grain resolution for emulated plans (DESIGN.md §18):
/// an explicitly chosen tile is honored as-is; otherwise the shape class's
/// tuning-cache entry wins (gemm.tune.hit), and absent a usable entry the
/// analytic solver decides (gemm.tune.{miss,fallback} name why not).
struct ResolvedSchedule {
  TileConfig tile;
  std::size_t grain = 0;
};

ResolvedSchedule resolve_schedule(const TileConfig& requested, std::size_t m,
                                  std::size_t n, std::size_t k) {
  if (!(requested == table4_config())) return {requested, 0};
  model::TuningEntry entry;
  if (model::TuningCache::global().lookup(m, n, k, &entry) ==
      model::TuningLookup::kHit) {
    return {tile_is_feasible(entry.tile) ? entry.tile : solver_default_tile(),
            entry.grain};
  }
  return {solver_default_tile(), 0};
}

/// Automatic small-GEMM inline threshold override; 0 = automatic.
std::atomic<std::size_t> g_inline_threshold{0};
/// Default m*n*k below which execute skips the pool: the measured
/// break-even of serial vs pooled gemm_ex over the 36 small-stream classes
/// (m, n in {32, 64, 128}, k in {32..256}) on a 4-vCPU AVX-512 Xeon VM,
/// with workers warm. Pooled/serial time ratio by m*n*k:
///   <= 2^17   0.96-1.37  (pooling loses: too few tiles per thread)
///      2^18   0.87-1.25  (median ~0.95; k=32 classes still lose)
///      2^19   0.79-1.05  (median ~0.86)
///   >= 2^20   0.55-0.89
/// so the crossover is 2^18 = 64^3.
constexpr std::size_t kDefaultInlineThreshold = std::size_t{64} * 64 * 64;

/// Process-unique grouped-execute ids for CallRecord::batch_id (0 means
/// unbatched, so the first batch is 1).
std::atomic<std::uint32_t> g_batch_counter{0};

/// Floor on the FLOPs a flattened-stream chunk should carry: below ~4
/// MFLOP the pool round-trip dominates the chunk. The batch grain is this
/// divided by the stream's mean per-block FLOPs, so batches of tiny items
/// coalesce many items into one task while large items still fan out.
constexpr std::uint64_t kMinChunkFlops = std::uint64_t{1} << 22;

/// Splits A and B into the workspace's plane stacks per the plan's recipe.
/// Plane 0 = lo; for three-way splits: lo, mid, hi.
void split_into_workspace(Workspace& ws, const Matrix& a, const Matrix& b,
                          const PlanKey& key) {
  const std::span<Matrix> ap = ws.a_planes();
  const std::span<Matrix> bp = ws.b_planes();
  if (key.planes == 3) {
    core::split3_span_f32(a.data(), ap[2].data(), ap[1].data(), ap[0].data(),
                          key.split);
    core::split3_span_f32(b.data(), bp[2].data(), bp[1].data(), bp[0].data(),
                          key.split);
  } else {
    core::split_span_f32(a.data(), ap[1].data(), ap[0].data(), key.split);
    core::split_span_f32(b.data(), bp[1].data(), bp[0].data(), key.split);
  }
}

std::uint64_t encode_combos(std::span<const PlaneCombo> combos, int planes) {
  EGEMM_EXPECTS(!combos.empty() && combos.size() <= kMaxPlanCombos);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    EGEMM_EXPECTS(combos[i].a_plane >= 0 && combos[i].a_plane < planes);
    EGEMM_EXPECTS(combos[i].b_plane >= 0 && combos[i].b_plane < planes);
    const std::uint64_t enc =
        (static_cast<std::uint64_t>(combos[i].a_plane) << 2) |
        static_cast<std::uint64_t>(combos[i].b_plane);
    seq |= enc << (4 * i);
  }
  return seq;
}

/// Maps an executable recipe onto the emulation-precision ladder
/// (core/scheme.hpp): the SchemeId whose split method and term grid the
/// recipe realizes, or -1 for custom recipes that match no named rung.
/// PlaneCombo numbers planes from the LOWEST order (plan layer
/// convention); scheme terms number by split depth (0 = hi), so the grid
/// index flips: depth = planes - 1 - plane.
std::int8_t classify_combos(core::SplitMethod split, int planes,
                            std::span<const PlaneCombo> combos) {
  core::SchemeProfile profile;
  profile.split = split;
  if (combos.size() == 1 && combos[0].a_plane == planes - 1 &&
      combos[0].b_plane == planes - 1) {
    // A single hi x hi product consumes raw RN16 numerics: that is the
    // half-only rung regardless of how many planes the key nominally
    // decomposes into (the kCublasTcHalf recipe keeps planes = 2).
    profile.half_only = true;
    profile.planes = 1;
    profile.term_mask = 0x1;
  } else {
    profile.planes = planes;
    profile.term_mask = 0;
    for (const PlaneCombo& combo : combos) {
      profile.set_term(planes - 1 - combo.a_plane, planes - 1 - combo.b_plane,
                       true);
    }
    // A recipe that repeats a combo executes more adds than the rung's
    // bound accounts for; such a recipe is custom, never a named rung.
    if (profile.term_count() != static_cast<int>(combos.size())) return -1;
  }
  const std::optional<core::SchemeId> id = core::classify_scheme(profile);
  return id ? static_cast<std::int8_t>(*id) : std::int8_t{-1};
}

/// An emulated plan's executable recipe: split, ordered combos over
/// `planes` planes, and combo order.
struct Recipe {
  core::SplitMethod split;
  std::span<const PlaneCombo> combos;
  ComboOrder order;
  int planes;
};

struct KeyedSchedule {
  PlanKey key;
  std::size_t grain = 0;
};

/// The one PlanKey builder behind every planning entry point: shape,
/// backend, resolved tile, then the recipe. A null `recipe` is a direct
/// binary32 backend: it skips the tuning consult -- its tile only feeds
/// the timing model, so a tune.{hit,miss} there would be noise.
KeyedSchedule plan_key(Backend backend, std::size_t m, std::size_t n,
                       std::size_t k, const TileConfig& tile,
                       const Recipe* recipe) {
  KeyedSchedule out;
  PlanKey& key = out.key;
  key.m = m;
  key.n = n;
  key.k = k;
  key.backend = backend;
  key.direct = recipe == nullptr;
  const ResolvedSchedule sched =
      key.direct ? ResolvedSchedule{analytic_tile(tile), 0}
                 : resolve_schedule(tile, m, n, k);
  out.grain = sched.grain;
  key.bm = sched.tile.bm;
  key.bn = sched.tile.bn;
  key.bk = sched.tile.bk;
  key.wm = sched.tile.wm;
  key.wn = sched.tile.wn;
  key.wk = sched.tile.wk;
  if (recipe != nullptr) {
    key.split = recipe->split;
    key.order = recipe->order;
    key.planes = static_cast<std::uint8_t>(recipe->planes);
    key.combo_count = static_cast<std::uint8_t>(recipe->combos.size());
    key.combo_seq = encode_combos(recipe->combos, recipe->planes);
    key.scheme = classify_combos(recipe->split, recipe->planes, recipe->combos);
  }
  return out;
}

/// Bumps the per-scheme execute counter: gemm.scheme.<name>, with custom
/// recipes landing on gemm.scheme.custom. Static handles, same pattern as
/// the differential runner's per-path counters.
void count_scheme_execute(std::int8_t scheme) {
  if constexpr (obs::kEnabled) {
    static const std::array<obs::Counter*, core::kSchemeCount + 1> counters =
        [] {
          std::array<obs::Counter*, core::kSchemeCount + 1> handles{};
          for (std::size_t s = 0; s < core::kSchemeCount; ++s) {
            handles[s] = &obs::registry().counter(
                std::string("gemm.scheme.") +
                core::scheme_name(static_cast<core::SchemeId>(s)));
          }
          handles[core::kSchemeCount] =
              &obs::registry().counter("gemm.scheme.custom");
          return handles;
        }();
    const std::size_t index = scheme >= 0 ? static_cast<std::size_t>(scheme)
                                          : core::kSchemeCount;
    counters[index]->add(1);
  }
}

/// One GEMM of an execute: its operands, its workspace, its place in the
/// block stream (a block is one 16x16 output tile), and the stage weights
/// its call record is built from.
struct ItemRun {
  struct Operands {
    const GemmPlan* plan = nullptr;
    const Matrix* a = nullptr;
    const Matrix* b = nullptr;
    const Matrix* c = nullptr;
    Matrix* d = nullptr;
  } op;
  Workspace* ws = nullptr;
  std::size_t row_blocks = 0;
  std::size_t col_blocks = 0;
  std::size_t first = 0;  ///< offset into the flattened block stream
  // Stage weights in ns, filled only while call records are on. prep_ns
  // spans the whole prep (split, output init, pack) on whichever thread
  // ran it; direct_ns is a direct backend's kernel on the calling thread.
  // Engine stretches of one item run on many pool threads at once, so
  // their weights are atomic.
  std::uint64_t prep_ns = 0;
  std::uint64_t split_ns = 0;
  std::uint64_t pack_ns = 0;
  std::uint64_t direct_ns = 0;
  std::atomic<std::uint64_t> engine_ns{0};
  std::atomic<std::uint64_t> combine_ns{0};

  const PlanKey& key() const noexcept { return op.plan->key(); }
  std::size_t blocks() const noexcept { return row_blocks * col_blocks; }
};

/// Wall segments of one execute on the calling thread, which the records
/// apportion by the item weights.
struct Walls {
  std::uint64_t start = 0;
  std::uint64_t prep = 0;
  std::uint64_t engine = 0;
};

void run_direct(const ItemRun::Operands& op) {
  switch (op.plan->backend()) {
    case Backend::kCublasFp32:
      sgemm_fp32_into(*op.a, *op.b, op.c, *op.d);
      break;
    case Backend::kSdkFp32:
      EGEMM_EXPECTS(op.c == nullptr);
      sdk_gemm_fp32_into(*op.a, *op.b, *op.d);
      break;
    case Backend::kDekker:
      gemm_dekker_into(*op.a, *op.b, op.c, *op.d);
      break;
    default:
      EGEMM_EXPECTS(!"unreachable direct backend");
      break;
  }
}

/// Per-item prep into `run.ws`: split, output init (C or zeros), pack.
void prep_item(ItemRun& run, bool timed) {
  const obs::StageTimer prep(nullptr, timed ? &run.prep_ns : nullptr);
  const PlanKey& key = run.key();
  Workspace& ws = *run.ws;
  ws.ensure(key.m, key.n, key.k, key.planes);
  {
    // The O(N^2) data-split pass (runs on CUDA cores in the real kernel).
    const obs::StageTimer split("split", timed ? &run.split_ns : nullptr);
    split_into_workspace(ws, *run.op.a, *run.op.b, key);
  }
  Matrix& d = *run.op.d;
  d.resize(key.m, key.n);
  if (run.op.c != nullptr) {
    std::copy(run.op.c->data().begin(), run.op.c->data().end(),
              d.data().begin());
  } else {
    d.fill(0.0f);
  }
  {
    const obs::StageTimer pack("pack", timed ? &run.pack_ns : nullptr);
    ws.pack();
  }
  EGEMM_COUNTER_ADD("egemm.calls", 1);
  count_scheme_execute(key.scheme);
}

void run_block(const ItemRun& run, std::size_t rb, std::size_t cb,
               std::uint64_t* combine) {
  packed_tile(*run.op.d, run.ws->packed_a(), run.ws->packed_b(), run.key().k,
              run.op.plan->combos(), run.key().order, rb, cb, combine);
}

/// Runs one stretch of an item's blocks; `walk(combine)` visits them. The
/// caller opens the "mma" span and counts the tiles once per pool chunk.
/// When `timed`, the stretch's wall time and its writeback time join the
/// item's engine weights.
template <typename Walk>
void run_stretch(ItemRun& run, bool timed, const Walk& walk) {
  std::uint64_t wall = 0;
  std::uint64_t combine = 0;
  {
    const obs::StageTimer stretch(nullptr, timed ? &wall : nullptr);
    walk(timed ? &combine : nullptr);
  }
  if (timed) {
    run.engine_ns.fetch_add(wall, std::memory_order_relaxed);
    run.combine_ns.fetch_add(combine, std::memory_order_relaxed);
  }
}

/// Blocks [l0, l1) of one item in row-major order.
void run_linear(ItemRun& run, bool timed, std::size_t l0, std::size_t l1) {
  if (l0 == l1) return;
  run_stretch(run, timed, [&](std::uint64_t* combine) {
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
    prep += run.prep_ns;
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
      class_prep += run.prep_ns;
      rec.split_ns += run.split_ns;
      rec.pack_ns += run.pack_ns;
      class_engine += run.engine_ns.load(std::memory_order_relaxed);
      class_combine += run.combine_ns.load(std::memory_order_relaxed);
      class_direct += run.direct_ns;
      rec.bytes_moved += (key.m * key.k + key.k * key.n + d_elems +
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
/// items are prepped (split, output init, pack), then their blocks run
/// through the tile kernels, in one of three shapes:
///  * serial -- a one-thread pool, or total work under the small-GEMM
///    inline threshold: each item is prepped and run back-to-back on the
///    calling thread, all on ONE recycled workspace, so the hot planes
///    stay cache-resident exactly as in a loop of singles;
///  * one item -- prepped on the calling thread, then its blocks go
///    through parallel_for_2d with the plan's tuned grain;
///  * several items -- one workspace each, prepped in parallel over
///    items, then every block of every item enters ONE flattened 1D
///    stream whose grain targets kMinChunkFlops per chunk, so tiny items
///    coalesce and large ones still fan out.
/// Every shape runs each block through the same tile kernel, so results
/// are bit-identical across shapes.
void run_items(GemmContext& ctx, std::span<ItemRun> runs,
               std::uint32_t batch_id, obs::PlanLookup lookup) {
  for (const ItemRun& run : runs) {
    const ItemRun::Operands& op = run.op;
    EGEMM_EXPECTS(op.plan != nullptr && op.a != nullptr && op.b != nullptr &&
                  op.d != nullptr);
    const PlanKey& key = op.plan->key();
    EGEMM_EXPECTS(op.a->rows() == key.m && op.a->cols() == key.k);
    EGEMM_EXPECTS(op.b->rows() == key.k && op.b->cols() == key.n);
    EGEMM_EXPECTS(op.c == nullptr ||
                  (op.c->rows() == key.m && op.c->cols() == key.n));
    EGEMM_EXPECTS(op.a != op.d && op.b != op.d && op.c != op.d);
  }
#ifndef NDEBUG
  // Outputs must not alias across items: the stream writes every item's
  // blocks concurrently.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      EGEMM_EXPECTS(runs[i].op.d != runs[j].op.d);
    }
  }
#endif
  const bool timed = obs::kEnabled && obs::call_records_enabled();
  Walls walls;
  walls.start = timed ? obs::monotonic_ns() : 0;

  std::size_t emulated = 0;
  std::size_t blocks = 0;
  std::uint64_t work = 0;  // multiply-adds
  for (ItemRun& run : runs) {
    const PlanKey& key = run.key();
    run.first = blocks;
    if (key.direct) {
      const obs::StageTimer direct(nullptr, timed ? &run.direct_ns : nullptr);
      run_direct(run.op);
      continue;
    }
    ++emulated;
    run.row_blocks = (key.m + kTile - 1) / kTile;
    run.col_blocks = (key.n + kTile - 1) / kTile;
    blocks += run.blocks();
    work += key.m * key.n * key.k;
  }

  if (emulated > 0) {
    const obs::ScopedSpan span(batch_id == 0 ? "egemm_multiply"
                                             : "egemm_grouped");
#ifndef NDEBUG
    const std::uint64_t split_before = core::debug_split_elements();
#endif
    util::ThreadPool& pool = util::global_pool();
    const bool serial =
        pool.size() <= 1 || work < small_gemm_inline_threshold();
    if (serial || emulated == 1) {
      WorkspaceLease lease = ctx.lease_workspace();
      for (ItemRun& run : runs) {
        if (run.key().direct) continue;
        run.ws = &*lease;
        prep_item(run, timed);
        walls.prep += run.prep_ns;
        if (serial) {
          const obs::ScopedSpan mma("mma");
          EGEMM_COUNTER_ADD("egemm.tiles", run.blocks());
          run_linear(run, timed, 0, run.blocks());
          walls.engine += run.engine_ns.load(std::memory_order_relaxed);
        } else {
          const obs::StageTimer engine(nullptr,
                                       timed ? &walls.engine : nullptr);
          pool.parallel_for_2d(
              run.row_blocks, run.col_blocks, run.op.plan->schedule_grain(),
              [&](std::size_t rb0, std::size_t rb1, std::size_t cb0,
                  std::size_t cb1) {
                const obs::ScopedSpan mma("mma");
                EGEMM_COUNTER_ADD("egemm.tiles", (rb1 - rb0) * (cb1 - cb0));
                run_stretch(run, timed, [&](std::uint64_t* combine) {
                  for (std::size_t rb = rb0; rb < rb1; ++rb) {
                    for (std::size_t cb = cb0; cb < cb1; ++cb) {
                      run_block(run, rb, cb, combine);
                    }
                  }
                });
              });
        }
      }
    } else {
      // Leases are taken serially so the pool stays contention-free.
      std::vector<WorkspaceLease> leases;
      leases.reserve(emulated);
      for (ItemRun& run : runs) {
        if (run.key().direct) continue;
        leases.push_back(ctx.lease_workspace());
        run.ws = &*leases.back();
      }
      {
        const obs::StageTimer prep(nullptr, timed ? &walls.prep : nullptr);
        pool.parallel_for(runs.size(), [&](std::size_t j0, std::size_t j1) {
          for (std::size_t j = j0; j < j1; ++j) {
            if (!runs[j].key().direct) prep_item(runs[j], timed);
          }
        });
      }
      const std::uint64_t avg_block_flops =
          blocks == 0 ? 1 : std::max<std::uint64_t>(1, 2 * work / blocks);
      const auto grain = static_cast<std::size_t>(
          std::max<std::uint64_t>(1, kMinChunkFlops / avg_block_flops));
      const obs::StageTimer engine(nullptr, timed ? &walls.engine : nullptr);
      pool.parallel_for(blocks, grain, [&](std::size_t g0, std::size_t g1) {
        const obs::ScopedSpan mma("mma");
        EGEMM_COUNTER_ADD("egemm.tiles", g1 - g0);
        // The last item starting at or before g0 owns it (items with no
        // blocks, direct ones included, share their successor's offset).
        auto it = std::ranges::upper_bound(runs, g0, {}, &ItemRun::first) - 1;
        for (std::size_t g = g0; g < g1; ++it) {
          const std::size_t end = std::min(g1, it->first + it->blocks());
          run_linear(*it, timed, g - it->first, end - it->first);
          g = end;
        }
      });
    }
#ifndef NDEBUG
    // Each input element must be split exactly once per GEMM -- the plane
    // cache is the point of the packed engine, so re-splitting anywhere
    // downstream is a bug.
    std::uint64_t expected_split = 0;
    for (const ItemRun& run : runs) {
      if (!run.key().direct) {
        expected_split += run.op.a->data().size() + run.op.b->data().size();
      }
    }
    EGEMM_ENSURES(core::debug_split_elements() - split_before ==
                  expected_split);
#endif
  }
  if (timed) record_calls(runs, walls, batch_id, lookup);
}

}  // namespace

std::uint64_t debug_workspace_allocations() noexcept {
#ifndef NDEBUG
  return g_workspace_allocations.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

std::size_t small_gemm_inline_threshold() noexcept {
  const std::size_t forced = g_inline_threshold.load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  if (const std::optional<std::size_t> file =
          model::TuningCache::global().inline_threshold()) {
    return *file;
  }
  return kDefaultInlineThreshold;
}

void set_small_gemm_inline_threshold(std::size_t work) noexcept {
  g_inline_threshold.store(work, std::memory_order_relaxed);
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
  h = mix(h, static_cast<std::uint64_t>(key.backend));
  h = mix(h, key.direct ? 1u : 0u);
  h = mix(h, static_cast<std::uint64_t>(key.split));
  h = mix(h, static_cast<std::uint64_t>(key.order));
  h = mix(h, static_cast<std::uint64_t>(key.planes));
  h = mix(h, static_cast<std::uint64_t>(key.combo_count));
  h = mix(h, key.combo_seq);
  h = mix(h, static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(key.scheme)));
  h = mix(h, static_cast<std::uint64_t>(key.bm));
  h = mix(h, static_cast<std::uint64_t>(key.bn));
  h = mix(h, static_cast<std::uint64_t>(key.bk));
  h = mix(h, static_cast<std::uint64_t>(key.wm));
  h = mix(h, static_cast<std::uint64_t>(key.wn));
  h = mix(h, static_cast<std::uint64_t>(key.wk));
  return h;
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

void Workspace::ensure(std::size_t m, std::size_t n, std::size_t k,
                       int planes) {
  const auto count = static_cast<std::size_t>(planes);
  if (ap_.size() < count) {
    count_workspace_allocation();
    ap_.resize(count);
  }
  if (bp_.size() < count) {
    count_workspace_allocation();
    bp_.resize(count);
  }
  count_ = count;
  for (std::size_t p = 0; p < count; ++p) {
    grow_matrix(ap_[p], m, k);
    grow_matrix(bp_[p], k, n);
  }
}

void Workspace::pack() {
  // Deliberately not short-circuited: both packs must refresh.
  const bool a_grew = apack_.assign(a_planes());
  const bool b_grew = bpack_.assign(b_planes());
  if (a_grew || b_grew) count_workspace_allocation();
}

// ---------------------------------------------------------------------------
// GemmPlan
// ---------------------------------------------------------------------------

GemmPlan::GemmPlan(const PlanKey& key, std::size_t grain)
    : key_(key), grain_(grain) {
  tile_ = TileConfig{key.bm, key.bn, key.bk, key.wm, key.wn, key.wk};
  combos_.reserve(key.combo_count);
  for (std::uint8_t i = 0; i < key.combo_count; ++i) {
    const std::uint64_t enc = (key.combo_seq >> (4 * i)) & 0xF;
    combos_.push_back(PlaneCombo{static_cast<int>(enc >> 2),
                                 static_cast<int>(enc & 3)});
  }
  if (!key.direct) {
    // Split planes plus their tile-packed copies.
    const std::size_t row_blocks = (key.m + kTile - 1) / kTile;
    const std::size_t col_blocks = (key.n + kTile - 1) / kTile;
    workspace_bytes_ = key.planes *
                       (key.m * key.k + key.k * key.n +
                        (row_blocks + col_blocks) * kTile * key.k) *
                       sizeof(float);
  }
}

void GemmPlan::execute(GemmContext& ctx, const Matrix& a, const Matrix& b,
                       const Matrix* c, Matrix& d) const {
  // Consume the plan_for breadcrumb whether or not recording is on, so a
  // stale hit/miss never attaches to a later call through a held plan.
  obs::PlanLookup lookup = obs::PlanLookup::kUnknown;
  if (tl_last_plan == this) {
    lookup = tl_last_lookup;
    leave_breadcrumb(nullptr, obs::PlanLookup::kUnknown);
  }
  ItemRun run{{this, &a, &b, c, &d}};
  run_items(ctx, {&run, 1}, /*batch_id=*/0, lookup);
}

KernelTiming GemmPlan::timing(const tcsim::GpuSpec& spec) const {
  EGEMM_EXPECTS(key_.m > 0 && key_.n > 0 && key_.k > 0);
  const auto m = static_cast<std::uint64_t>(key_.m);
  const auto n = static_cast<std::uint64_t>(key_.n);
  const auto k = static_cast<std::uint64_t>(key_.k);
  switch (key_.backend) {
    case Backend::kEgemmTC: {
      EgemmOptions opts;
      opts.split = key_.split;
      if (key_.planes != 3) {
        opts.tile = tile_;
        return egemm_timing(m, n, k, spec, opts);
      }
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
    case Backend::kDekker: {
      EgemmOptions opts;
      opts.emulation_instructions = 16;
      opts.tile = tile_;
      return egemm_timing(m, n, k, spec, opts);
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
                                                  std::size_t k,
                                                  const EgemmOptions& opts) {
  // Alg. 1's term order: low-order products first. The other recipes
  // mirror the one-shot baselines exactly (gemm/baselines.cpp).
  static constexpr PlaneCombo kAlg1[] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  static constexpr PlaneCombo kHalfOnly[] = {{1, 1}};
  static constexpr PlaneCombo kMarkidis[] = {{0, 1}, {1, 0}, {1, 1}};
  // All 9 three-way-split products, smallest-magnitude terms first so they
  // are absorbed before the dominant hi x hi partial product.
  static constexpr PlaneCombo k3Split[] = {{0, 0}, {0, 1}, {1, 0},
                                           {0, 2}, {1, 1}, {2, 0},
                                           {1, 2}, {2, 1}, {2, 2}};

  std::optional<Recipe> recipe;  // empty: direct binary32 backend
  switch (backend) {
    case Backend::kCublasFp32:
    case Backend::kSdkFp32:
    case Backend::kDekker:
      break;
    case Backend::kEgemmTC:
      if (opts.emulation_instructions == 9) {
        // Three-way split: opts.split selects the rung -- round-split is
        // the FP32-recovery scheme (exact decomposition, the default),
        // truncate-split the Ozaki-style one-signed word slices.
        recipe = Recipe{opts.split, k3Split, ComboOrder::kFusedPerTile, 3};
      } else {
        EGEMM_EXPECTS(opts.emulation_instructions == 4);
        recipe = Recipe{opts.split, kAlg1, ComboOrder::kFusedPerTile, 2};
      }
      break;
    case Backend::kCublasTcHalf:
      recipe = Recipe{core::SplitMethod::kRoundSplit, kHalfOnly,
                      ComboOrder::kFusedPerTile, 2};
      break;
    case Backend::kCublasTcEmulation:
      recipe = Recipe{core::SplitMethod::kRoundSplit, kAlg1,
                      ComboOrder::kSeparatePasses, 2};
      break;
    case Backend::kMarkidis:
      recipe = Recipe{core::SplitMethod::kTruncateSplit, kMarkidis,
                      ComboOrder::kFusedPerTile, 2};
      break;
  }
  const auto [key, grain] =
      plan_key(backend, m, n, k, opts.tile, recipe ? &*recipe : nullptr);
  return plan_for(key, grain);
}

std::shared_ptr<const GemmPlan> GemmContext::plan_emulated(
    std::size_t m, std::size_t n, std::size_t k, core::SplitMethod split,
    std::span<const PlaneCombo> combos, ComboOrder order, int planes,
    const TileConfig& tile) {
  EGEMM_EXPECTS(planes == 2 || planes == 3);
  const Recipe recipe{split, combos, order, planes};
  const auto [key, grain] =
      plan_key(Backend::kEgemmTC, m, n, k, tile, &recipe);
  return plan_for(key, grain);
}

std::shared_ptr<const GemmPlan> GemmContext::plan_for(const PlanKey& key,
                                                      std::size_t grain) {
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
    created = std::shared_ptr<const GemmPlan>(new GemmPlan(key, grain));
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

Matrix GemmContext::run(Backend backend, const Matrix& a, const Matrix& b,
                        const Matrix* c, const EgemmOptions& opts) {
  EGEMM_EXPECTS(a.cols() == b.rows());
  const std::shared_ptr<const GemmPlan> p =
      plan(backend, a.rows(), b.cols(), a.cols(), opts);
  Matrix d;
  p->execute(*this, a, b, c, d);
  return d;
}

std::shared_ptr<const GemmPlan> GemmContext::plan_scheme(
    core::SchemeId scheme, std::size_t m, std::size_t n, std::size_t k,
    const TileConfig& tile) {
  EgemmOptions opts;
  opts.tile = tile;
  switch (scheme) {
    case core::SchemeId::kHalf:
      return plan(Backend::kCublasTcHalf, m, n, k, opts);
    case core::SchemeId::kMarkidis:
      return plan(Backend::kMarkidis, m, n, k, opts);
    case core::SchemeId::kTruncate2:
      opts.split = core::SplitMethod::kTruncateSplit;
      return plan(Backend::kEgemmTC, m, n, k, opts);
    case core::SchemeId::kRound2:
      return plan(Backend::kEgemmTC, m, n, k, opts);
    case core::SchemeId::kSlice3:
      opts.split = core::SplitMethod::kTruncateSplit;
      opts.emulation_instructions = 9;
      return plan(Backend::kEgemmTC, m, n, k, opts);
    case core::SchemeId::kRecovery3:
      opts.emulation_instructions = 9;
      return plan(Backend::kEgemmTC, m, n, k, opts);
    case core::SchemeId::kCount:
      break;
  }
  EGEMM_EXPECTS(!"invalid SchemeId");
  return nullptr;
}

Matrix GemmContext::run_scheme(core::SchemeId scheme, const Matrix& a,
                               const Matrix& b, const Matrix* c) {
  EGEMM_EXPECTS(a.cols() == b.rows());
  const std::shared_ptr<const GemmPlan> p =
      plan_scheme(scheme, a.rows(), b.cols(), a.cols());
  Matrix d;
  p->execute(*this, a, b, c, d);
  return d;
}

GemmContext::ContractPlan GemmContext::plan_contract(
    std::size_t m, std::size_t n, std::size_t k,
    const core::AccuracyContract& contract) {
  ContractPlan result;
  result.resolution = core::resolve_contract(contract, k);
  if (result.resolution.feasible) {
    result.plan = plan_scheme(result.resolution.scheme, m, n, k);
  }
  return result;
}

void GemmContext::execute_grouped(std::span<const GroupedGemm> items) {
  if (items.empty()) return;
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

}  // namespace egemm::gemm
