#pragma once
// Plan-once / execute-many GEMM (DESIGN.md §13).
//
// The repository's iterative callers (kMeans/kNN Lloyd loops, the fuzz
// harness, the benchmarks) run the same (m, n, k) GEMM hundreds of times,
// yet a one-shot call re-derives its recipe, re-allocates the packed split
// planes, and re-sizes the output every time. Production GEMM
// stacks (cuBLAS handles, cuDNN execution plans) separate *planning* from
// *execution*; this layer adopts that architecture:
//
//   GemmPlan     an immutable execution plan for one (shape, backend,
//                rung): its recipe is the rung's core::SchemeDescriptor --
//                split method, plane count and the ordered split-product
//                terms -- and the backend fixes the term order (fused per
//                k-tile, or separate passes for cuBLAS-TC-Emulation).
//                That is everything that decides the bits (the GPU tiling
//                only decides modeled time; see timing()). execute(ctx, A,
//                B, C, D) runs it into a caller-owned D; once the leased
//                workspace has warmed up it never grows (guarded in debug
//                builds), and a call allocates only a few small blocks of
//                bookkeeping (its region list, a pool body).
//   GemmContext  owns the reusable workspaces (LIFO free list, so
//                back-to-back same-shape calls get the same warm buffers)
//                and an LRU plan cache keyed by (shape, backend, rung).
//                Cache behaviour is observable as the gemm.plan.{hit,miss}
//                counters and a "plan" span around plan construction.
//
// There is one way to plan each kind of call: plan() for a Table 5
// backend, plan_scheme() for a named ladder rung. An accuracy contract is
// resolved to its rung first (core::require_feasible, which throws when no
// rung qualifies) and then planned with plan_scheme(). The one-shot APIs
// (egemm_multiply, the backend gemm_ex) plan against default_context(),
// so every caller shares one warm cache unless it opts into its own
// context; gemm_grouped and the contract gemm_ex take a context. A plan
// executes on one engine, the packed tile kernel; the seed's scalar driver
// survives only as the test oracle verify::reference_execute, which the
// packed engine matches bitwise.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/scheme.hpp"
#include "core/split.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/matrix.hpp"
#include "gemm/packing.hpp"
#include "obs/callrec.hpp"
#include "tcsim/gpu_spec.hpp"
#include "util/assert.hpp"

namespace egemm::gemm {

class GemmContext;
struct RegionWorkspaces;

/// The identity of a plan, and its cache key: the problem shape, the
/// backend (timing dispatch, direct target, and term order), and the
/// emulation-ladder rung whose descriptor is the recipe. Two requests with
/// equal keys are interchangeable by construction, which is what makes the
/// LRU cache sound.
struct PlanKey {
  std::size_t m = 0, n = 0, k = 0;
  Backend backend = Backend::kEgemmTC;
  /// The core::SchemeId the plan runs; -1 exactly for the direct
  /// (binary32, no plane decomposition) backends.
  std::int8_t scheme = -1;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept;
};

/// Reusable per-call scratch owned by a GemmContext: the tile-packed split
/// planes of A and B that the packed engine streams, the only copy of each
/// plane (the split writes straight into them). ensure() only ever grows
/// storage; in debug builds every actual growth bumps the process-wide
/// counter below, which is how the reuse guard test proves a warm
/// execute() grows no workspace.
class Workspace {
 public:
  /// Sizes the packs prep fills (growing, never shrinking, their storage)
  /// for `planes` split planes of an (m x k) x (k x n) problem: A's unless
  /// `fill_a` is false, B's unless `fill_b` is (an operand passed as a
  /// kept pack is not filled). The execute pipeline then splits into them
  /// by row ranges.
  void ensure(std::size_t m, std::size_t n, std::size_t k, int planes,
              bool fill_a, bool fill_b);

  /// Grows the packs' storage, not their extents, to `planes` planes of
  /// `a_floats` and `b_floats` floats (0: leave that pack as it is), so a
  /// later ensure() up to those sizes does not allocate.
  void reserve(std::size_t planes, std::size_t a_floats, std::size_t b_floats);

  PackedPlanes& packed_a() noexcept { return apack_; }
  PackedPlanes& packed_b() noexcept { return bpack_; }

 private:
  PackedPlanes apack_;
  PackedPlanes bpack_;
};

/// Work (m*n*k multiply-adds, summed over a grouped call's items) below
/// which an execute runs inline on the calling thread instead of
/// dispatching to the pool: under it the pool round-trip costs more than
/// it buys. This is the measured break-even of serial vs pooled gemm_ex
/// over the 36 small-stream classes (m, n in {32, 64, 128}, k in
/// {32..256}) on a 4-vCPU AVX-512 Xeon VM, with workers warm and F16C
/// split, before regions (each item's prep then ran as row chunks on the
/// pool). Pooled / serial p50 ratio by m*n*k
/// (per-class medians of three alternating runs):
///   <= 2^16   1.25-2.09  (pooling loses: too few tiles per thread)
///      2^17   0.99-1.10  (median 1.01: break-even, no class wins)
///      2^18   0.76-0.92  (median 0.81; every class wins, k=32 too)
///      2^19   0.58-0.66  (median 0.63)
///   >= 2^20   0.37-0.58
/// so the crossover is 2^18 = 64^3.
inline constexpr std::size_t kSmallGemmInlineThreshold =
    std::size_t{64} * 64 * 64;

/// Work (m*n*k multiply-adds) above which a single pooled execute fills
/// its packs whole (one pool pass per operand over its fill units) and
/// its regions read them, instead of cutting its output into one region
/// per pool thread, each splitting the A rows and B columns it reads on
/// the thread that multiplies them (DESIGN.md §18). Split regions pay a
/// second split of each input (a 2 x 2 grid reads every row twice) and
/// have no load balancing; a whole fill pays its fill's pool passes and
/// its tiles read packs other cores wrote. Split / whole p50 ratio of one
/// execute, round-2term, 4-vCPU AVX-512 Xeon VM, median [quartiles] of 15
/// alternating rounds:
///   2^18  64^3                      0.54 [0.52-0.56]
///   2^20  128x128x64                0.65 [0.65-0.67]
///   2^21  128x128x128               0.76 [0.74-0.76]
///   2^22  128x128x256, 256x256x64,  0.80-0.83
///         160^3
///   2^23  256x256x128               0.87 [0.84-0.93]
///         128x128x512               0.97 [0.91-1.01]
///   2^24  256^3, 128x128x1024,      0.95-1.01
///         32x32x16384
///   2^25  322^3, 8192x32x128,       0.89-0.98
///         64x4096x128
///   2^27  512^3                     1.09 [1.06-1.12]
///   2^28  128x128x16384             1.27 [1.24-1.31]
///   2^30  1024^3                    1.09 [1.06-1.14]
/// An earlier, noisier sweep of 7 rounds agreed through 2^22 and read
/// 128x128x512 at 1.06, so the bound is 2^22: regions win by 17% or more
/// at and below it in every sweep, and nothing above it is won reliably.
inline constexpr std::uint64_t kRegionMaxWork = std::uint64_t{1} << 22;

/// Process-wide count of workspace buffer growths. Debug builds only: in
/// NDEBUG builds the accounting compiles out and this always returns 0
/// (gate tests on debug_workspace_accounting()).
std::uint64_t debug_workspace_allocations() noexcept;

/// True when the build performs the allocation accounting above.
constexpr bool debug_workspace_accounting() noexcept {
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

/// RAII lease of a context-owned workspace; returns it to the context's
/// free list on destruction.
class WorkspaceLease {
 public:
  WorkspaceLease(WorkspaceLease&& other) noexcept;
  WorkspaceLease& operator=(WorkspaceLease&&) = delete;
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;
  ~WorkspaceLease();

  Workspace& operator*() noexcept { return *ws_; }
  Workspace* operator->() noexcept { return ws_.get(); }

 private:
  friend class GemmContext;
  WorkspaceLease(GemmContext* ctx, std::unique_ptr<Workspace> ws) noexcept
      : ctx_(ctx), ws_(std::move(ws)) {}

  GemmContext* ctx_ = nullptr;
  std::unique_ptr<Workspace> ws_;
};

/// Which operand of a plan a pack stands for.
enum class Side { kA, kB };

/// An operand's split planes kept across executes (DESIGN.md §13): filled
/// once by GemmPlan::keep, then passed to execute in that operand's place,
/// where prep skips it. It is the workspace's own pack type, held in a
/// workspace leased from the filling context (so its storage returns to
/// that context's pool, warm, when the kept pack is destroyed, and it must
/// not outlive the context); the one execute path and the one tile kernel
/// read it. A pack holds 16-lane k-major panels whatever the role, so one
/// pack of X serves as A = X^T and as B = X. An execute checks it against
/// the plan's extents, plane count and split before anything runs.
/// Executes only read it, so any number may share it concurrently;
/// refilling it while one runs is a race.
class KeptPack {
 public:
  std::size_t lanes() const noexcept { return pack().lanes(); }
  std::size_t k() const noexcept { return pack().k(); }
  std::size_t planes() const noexcept { return pack().planes(); }
  core::SplitMethod split() const noexcept { return split_; }
  /// The filled pack (an empty one before the first fill).
  const PackedPlanes& pack() const noexcept;

 private:
  friend class GemmPlan;
  std::optional<WorkspaceLease> lease_;
  PackedPlanes* pack_ = nullptr;  ///< one of lease_'s packs
  core::SplitMethod split_ = core::SplitMethod::kRoundSplit;
};

/// One input of an execute: a row-major matrix, or a range of its rows,
/// read as given or as its transpose, or a kept pack. Converts from a
/// matrix (as given), so execute(ctx, a, b, c, d) and GroupedGemm{plan,
/// &a, &b, c, &d} read their inputs as given. A row range is read in
/// place: rows [first_row, first_row + rows) stand for a rows x cols
/// matrix.
class Operand {
 public:
  Operand() = default;
  Operand(const Matrix& matrix, Transpose trans = Transpose::kNone) noexcept
      : Operand(matrix, 0, matrix.rows(), trans) {}
  Operand(const Matrix* matrix, Transpose trans = Transpose::kNone) noexcept
      : matrix_(matrix),
        trans_(trans),
        rows_(matrix != nullptr ? matrix->rows() : 0) {}
  Operand(const Matrix& matrix, std::size_t first_row, std::size_t rows,
          Transpose trans = Transpose::kNone) noexcept
      : matrix_(&matrix), trans_(trans), first_row_(first_row), rows_(rows) {
    EGEMM_EXPECTS(first_row <= matrix.rows() &&
                  rows <= matrix.rows() - first_row);
  }
  Operand(const KeptPack& kept) noexcept : kept_(&kept) {}

  /// The matrix whose rows the operand reads, or null for a kept pack.
  const Matrix* matrix() const noexcept { return matrix_; }
  Transpose trans() const noexcept { return trans_; }
  /// The kept pack, or null for a matrix.
  const KeptPack* kept() const noexcept { return kept_; }
  /// The stored rows read (the whole matrix unless a range was named),
  /// row-major with leading dimension cols(); matrix operands only.
  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return matrix_->cols(); }
  const float* data() const noexcept {
    return matrix_->data().data() + first_row_ * matrix_->cols();
  }

 private:
  const Matrix* matrix_ = nullptr;
  Transpose trans_ = Transpose::kNone;
  std::size_t first_row_ = 0;
  std::size_t rows_ = 0;
  const KeptPack* kept_ = nullptr;
};

/// An immutable execution plan, created once per (shape, backend, rung)
/// by a GemmContext and shared via the cache. Thread-safe to execute
/// concurrently (all mutable state lives in the leased workspace and the
/// caller-owned D).
class GemmPlan {
 public:
  std::size_t m() const noexcept { return key_.m; }
  std::size_t n() const noexcept { return key_.n; }
  std::size_t k() const noexcept { return key_.k; }
  /// True for plain binary32 backends (no plane decomposition).
  bool direct() const noexcept { return recipe_ == nullptr; }
  /// The backend the plan runs as (timing dispatch target).
  Backend backend() const noexcept { return key_.backend; }
  /// Separate passes for cuBLAS-TC-Emulation, fused per k-tile otherwise.
  ComboOrder order() const noexcept {
    return key_.backend == Backend::kCublasTcEmulation
               ? ComboOrder::kSeparatePasses
               : ComboOrder::kFusedPerTile;
  }
  /// The emulation-ladder rung this plan runs (core/scheme.hpp); nullopt
  /// for direct backends.
  std::optional<core::SchemeId> scheme_id() const noexcept {
    if (direct()) return std::nullopt;
    return recipe_->id;
  }
  // The recipe, from the rung's descriptor; emulated plans only.
  core::SplitMethod split() const noexcept { return recipe().split; }
  /// Planes each operand is split into (plane p = split depth p, 0 = hi).
  int planes() const noexcept { return recipe().planes; }
  /// The ordered split-product terms, by split depth.
  std::span<const core::SchemeTerm> terms() const noexcept {
    return recipe().terms;
  }
  /// Steady-state workspace footprint of one execute(): the packed planes
  /// of A and B, padded to whole 16-row / 16-column blocks.
  std::size_t workspace_bytes() const noexcept { return workspace_bytes_; }
  const PlanKey& key() const noexcept { return key_; }

  /// Runs the plan: D = op(A) x op(B) (+ C) into caller-owned `d`
  /// (resized in place). op(A), op(B) and C must match the planned shape.
  /// An operand given as its transpose is read through the pack's copying
  /// or transposing fill, never copied; a kept pack is read as filled.
  /// Throws std::invalid_argument, before anything is written or counted,
  /// when a kept pack's extents, plane count or split differ from the
  /// plan's, or the plan is direct. Once `d` and the context's workspace
  /// pool have warmed up it grows no buffer; it still allocates a few
  /// small blocks of bookkeeping per call (its region list, a pool body).
  /// This is the one-item case of the pipeline execute_grouped runs.
  void execute(GemmContext& ctx, const Operand& a, const Operand& b,
               const Matrix* c, Matrix& d) const;

  /// Fills `pack` with this plan's operand `side` from `source` (op(A),
  /// m x k, or op(B), k x n; not itself a kept pack), split per the
  /// recipe, in one pool pass over its fill units (16-lane panels of a
  /// lane-rows source, k rows of a k-rows one): the same bits an execute's
  /// prep writes. The first fill leases the pack's workspace from `ctx`; a
  /// refill reuses it. Returns the operand executes of this plan take
  /// for `side`: the pack -- or, on a direct plan, which splits nothing
  /// and leaves `pack` as it is, `source` itself.
  Operand keep(GemmContext& ctx, Side side, const Operand& source,
               KeptPack& pack) const;

  /// Simulated execution time on `spec` for the planned shape, dispatched
  /// like time_gemm, on the Table 4 tiling (table4_config(), the §6
  /// solver's pick; egemm_timing with EgemmOptions::tile models any
  /// other). Requires a non-degenerate shape.
  KernelTiming timing(const tcsim::GpuSpec& spec) const;

 private:
  friend class GemmContext;
  explicit GemmPlan(const PlanKey& key);

  const core::SchemeDescriptor& recipe() const noexcept {
    EGEMM_EXPECTS(recipe_ != nullptr);  // a direct plan has no recipe
    return *recipe_;
  }

  PlanKey key_;
  const core::SchemeDescriptor* recipe_ = nullptr;  ///< null when direct
  std::size_t workspace_bytes_ = 0;
};

/// One item of a grouped execute (GemmContext::execute_grouped): a planned
/// GEMM plus its operands. Plans may mix shapes, schemes and backends
/// freely; direct-backend items run inline, ahead of the
/// emulated stream, and record under the batch's id.
struct GroupedGemm {
  std::shared_ptr<const GemmPlan> plan;
  Operand a;
  Operand b;
  const Matrix* c = nullptr;  ///< optional accumulator input
  Matrix* d = nullptr;        ///< caller-owned output, resized in place
};

/// The matrix an item input names, for the chain check below; null for a
/// kept pack, which no output can be.
inline const Matrix* input_matrix(const Matrix* input) noexcept {
  return input;
}
inline const Matrix* input_matrix(const Operand& input) noexcept {
  return input.matrix();
}

/// Aborts, in release builds too, when an item's output is any item's A,
/// B or C, or two items share an output. A loop of single calls would let
/// a later item read what an earlier one wrote; a grouped call preps and
/// writes every item concurrently, so such a chain cannot keep the loop's
/// meaning and is rejected before anything executes. (An item's output
/// aliasing its own inputs is checked per item by the callers.) Shared
/// inputs are fine. `Item` is any {a, b, c, d} operand set (GroupedGemm,
/// GroupedGemmItem).
template <typename Item>
void expect_unchained(std::span<const Item> items) {
  if (items.size() < 2) return;
  std::vector<const Matrix*> outputs;
  outputs.reserve(items.size());
  for (const Item& item : items) outputs.push_back(item.d);
  std::ranges::sort(outputs);
  EGEMM_EXPECTS(std::ranges::adjacent_find(outputs) == outputs.end());
  for (const Item& item : items) {
    for (const Matrix* input :
         {input_matrix(item.a), input_matrix(item.b), item.c}) {
      EGEMM_EXPECTS(!std::ranges::binary_search(outputs, input));
    }
  }
}

/// Owns the plan cache and the workspace pool. Create one per long-lived
/// pipeline (or use default_context()); all members are thread-safe.
class GemmContext {
 public:
  static constexpr std::size_t kDefaultPlanCapacity = 64;

  explicit GemmContext(std::size_t plan_capacity = kDefaultPlanCapacity);
  GemmContext(const GemmContext&) = delete;
  GemmContext& operator=(const GemmContext&) = delete;

  /// Plan for a Table 5 backend: the recipe the backend executes. The
  /// binary32 backends plan direct; kCublasTcEmulation plans round-2term
  /// as separate passes; every other emulated backend plans its ladder
  /// rung (kEgemmTC: round-2term, kCublasTcHalf: half, kMarkidis:
  /// markidis) and shares that rung's cached plan.
  std::shared_ptr<const GemmPlan> plan(Backend backend, std::size_t m,
                                       std::size_t n, std::size_t k);

  /// Plan a named rung of the emulation-precision ladder
  /// (core/scheme.hpp) for the shape, fused per k-tile
  /// (plan->scheme_id() == scheme).
  std::shared_ptr<const GemmPlan> plan_scheme(core::SchemeId scheme,
                                              std::size_t m, std::size_t n,
                                              std::size_t k);

  /// Executes a batch of planned GEMMs through the same item pipeline as
  /// GemmPlan::execute (DESIGN.md §18). Every emulated item is cut into
  /// regions (one each when the batch has at least as many items as the
  /// pool has threads), and all regions of all items run in ONE pool
  /// pass, each splitting what it reads on the thread that multiplies it,
  /// so small items no longer serialize behind each other. Results are bit-identical to calling
  /// item.plan->execute() in a loop (each output tile runs the exact same
  /// operation sequence; only the schedule changes). Items must not chain
  /// (expect_unchained). Per-call telemetry deposits one CallRecord per
  /// shape class, tagged with a process-unique batch id and the class's
  /// item count.
  void execute_grouped(std::span<const GroupedGemm> items);

  /// Leases a warm workspace (LIFO, so repeated same-shape calls reuse the
  /// same buffers). execute() does this internally.
  WorkspaceLease lease_workspace();

  std::uint64_t plan_hits() const noexcept;
  std::uint64_t plan_misses() const noexcept;
  /// Plans evicted from the LRU since construction (also the process-wide
  /// gemm.plan.cache.evictions counter and the gemm.plan.cache.{size,
  /// capacity} gauges, last-writing context wins on the gauges).
  std::uint64_t plan_evictions() const noexcept;
  std::size_t cached_plans() const noexcept;
  std::size_t plan_capacity() const noexcept { return capacity_; }
  /// Workspaces free for lease_workspace(). The region pass's per-worker
  /// workspaces (DESIGN.md §18) are held apart and not counted.
  std::size_t pooled_workspaces() const noexcept;

 private:
  friend class WorkspaceLease;
  friend struct RegionWorkspaces;

  std::shared_ptr<const GemmPlan> plan_for(const PlanKey& key);
  void recycle(std::unique_ptr<Workspace> ws);
  /// The region pass's workspaces, one per pool worker (`workers`, the
  /// pool's size less the calling thread), made on first use. Only one
  /// pass dispatches on the pool at a time, so the worker in slot s owns
  /// workspace s - 1 for the pass.
  std::span<Workspace> worker_workspaces(std::size_t workers);

  struct CacheEntry {
    PlanKey key;
    std::shared_ptr<const GemmPlan> plan;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<CacheEntry> lru_;  ///< front = most recently used
  std::unordered_map<PlanKey, std::list<CacheEntry>::iterator, PlanKeyHash>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;

  mutable std::mutex ws_mutex_;
  std::vector<std::unique_ptr<Workspace>> free_workspaces_;
  std::vector<Workspace> worker_workspaces_;
};

/// The process-wide context behind the one-shot APIs.
GemmContext& default_context();

/// Names the scheme, backend and ISA ids of the CallRecords the execute
/// path deposits, for the per-call telemetry JSON (the obs layer sits
/// below the enums it records). Scheme -1 is a direct backend's record.
obs::CallJsonNames call_json_names();

}  // namespace egemm::gemm
