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
//                B, C, D) runs it into a caller-owned D with zero per-call
//                heap allocation once the leased workspace has warmed up
//                (guarded in debug builds).
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
/// execute() allocates nothing.
class Workspace {
 public:
  /// Sizes the packs prep fills (growing, never shrinking, their storage)
  /// for `planes` split planes of an (m x k) x (k x n) problem: A's unless
  /// `fill_a` is false, B's unless `fill_b` is (an operand passed as a
  /// kept pack is not filled). The execute pipeline then splits into them
  /// by row ranges.
  void ensure(std::size_t m, std::size_t n, std::size_t k, int planes,
              bool fill_a, bool fill_b);

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
/// {32..256}) on a 4-vCPU AVX-512 Xeon VM, with workers warm, F16C split
/// and prep chunked on the pool. Pooled / serial p50 ratio by m*n*k
/// (per-class medians of three alternating runs):
///   <= 2^16   1.25-2.09  (pooling loses: too few tiles per thread)
///      2^17   0.99-1.10  (median 1.01: break-even, no class wins)
///      2^18   0.76-0.92  (median 0.81; every class wins, k=32 too)
///      2^19   0.58-0.66  (median 0.63)
///   >= 2^20   0.37-0.58
/// so the crossover is 2^18 = 64^3.
inline constexpr std::size_t kSmallGemmInlineThreshold =
    std::size_t{64} * 64 * 64;

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

/// One input of an execute: a row-major matrix read as given or as its
/// transpose, or a kept pack. Converts from a matrix (as given), so
/// execute(ctx, a, b, c, d) and GroupedGemm{plan, &a, &b, c, &d} read their
/// inputs as given.
class Operand {
 public:
  Operand() = default;
  Operand(const Matrix& matrix, Transpose trans = Transpose::kNone) noexcept
      : matrix_(&matrix), trans_(trans) {}
  Operand(const Matrix* matrix, Transpose trans = Transpose::kNone) noexcept
      : matrix_(matrix), trans_(trans) {}
  Operand(const KeptPack& kept) noexcept : kept_(&kept) {}

  /// The matrix, or null for a kept pack.
  const Matrix* matrix() const noexcept { return matrix_; }
  Transpose trans() const noexcept { return trans_; }
  /// The kept pack, or null for a matrix.
  const KeptPack* kept() const noexcept { return kept_; }

 private:
  const Matrix* matrix_ = nullptr;
  Transpose trans_ = Transpose::kNone;
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
  /// plan's, or the plan is direct. Allocation-free once `d` and the
  /// context's workspace pool have warmed up. This is the one-item case of
  /// the pipeline execute_grouped runs.
  void execute(GemmContext& ctx, const Operand& a, const Operand& b,
               const Matrix* c, Matrix& d) const;

  /// Fills `pack` with this plan's operand `side` from `source` (op(A),
  /// m x k, or op(B), k x n; not itself a kept pack), split per the
  /// recipe, in prep_rows' chunks on the pool: the same bits an execute's
  /// prep writes. The first fill leases the pack's workspace from `ctx`;
  /// a refill reuses it. Returns the operand executes of this plan take
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
  /// GemmPlan::execute (DESIGN.md §18). Every emulated item's prep (the
  /// split into its packs) runs as row-range chunks in one pool pass, then
  /// every output tile of every item enters ONE flattened (item x tile)
  /// pool dispatch with a batch-aware grain, so small items no longer
  /// serialize behind each other. Results are bit-identical to calling
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
  std::size_t pooled_workspaces() const noexcept;

 private:
  friend class WorkspaceLease;

  std::shared_ptr<const GemmPlan> plan_for(const PlanKey& key);
  void recycle(std::unique_ptr<Workspace> ws);

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
};

/// The process-wide context behind the one-shot APIs.
GemmContext& default_context();

/// Names the scheme, backend and ISA ids of the CallRecords the execute
/// path deposits, for the per-call telemetry JSON (the obs layer sits
/// below the enums it records). Scheme -1 is a direct backend's record.
obs::CallJsonNames call_json_names();

}  // namespace egemm::gemm
