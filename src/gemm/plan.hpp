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
//   GemmPlan     an immutable execution recipe for one (shape, recipe):
//                backend, split method, plane count and the ordered
//                split-product combos -- everything that decides the bits
//                and nothing else (the GPU tiling only decides modeled
//                time; see timing()). execute(ctx, A, B, C, D) runs it into
//                a caller-owned D with zero per-call heap allocation once
//                the leased workspace has warmed up (guarded in debug
//                builds).
//   GemmContext  owns the reusable workspaces (LIFO free list, so
//                back-to-back same-shape calls get the same warm buffers)
//                and an LRU plan cache keyed by the recipe. Cache
//                behaviour is observable as the gemm.plan.{hit,miss}
//                counters and a "plan" span around plan construction.
//
// There is one way to plan each kind of call: plan() for a Table 5
// backend, plan_scheme() for a named ladder rung, plan_emulated() for a
// custom recipe, plan_contract() for an accuracy contract. The one-shot
// APIs (egemm_multiply, gemm_ex and its grouped/batched forms) plan
// against default_context(), so every caller shares one warm cache unless
// it opts into its own context. A plan executes on one engine, the packed
// tile kernel; the seed's scalar driver survives only as the test oracle
// verify::reference_execute, which the packed engine matches bitwise.

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
#include "tcsim/gpu_spec.hpp"
#include "util/assert.hpp"

namespace egemm::gemm {

class GemmContext;

/// A split-product term over arbitrary plane stacks: multiply A-plane
/// `a_plane` by B-plane `b_plane`. Plane 0 is always the lowest-order
/// plane (lo; for three-way splits: lo, mid, hi).
struct PlaneCombo {
  int a_plane;
  int b_plane;

  friend bool operator==(const PlaneCombo&, const PlaneCombo&) = default;
};

/// Most combos a plan can carry (the cache key packs the ordered sequence
/// into 4 bits per combo; order is numerically significant, so the key
/// must preserve it, not just the set).
inline constexpr std::size_t kMaxPlanCombos = 16;

/// The normalized identity of a plan: problem shape plus every knob that
/// changes the executed operation sequence (and the backend, which picks
/// the timing model). Two requests with equal keys are interchangeable by
/// construction, which is what makes the LRU cache sound.
struct PlanKey {
  std::size_t m = 0, n = 0, k = 0;
  Backend backend = Backend::kEgemmTC;  ///< timing dispatch + direct target
  bool direct = false;  ///< plain binary32 path, no plane decomposition
  core::SplitMethod split = core::SplitMethod::kRoundSplit;
  ComboOrder order = ComboOrder::kFusedPerTile;
  std::uint8_t planes = 2;
  std::uint8_t combo_count = 0;
  std::uint64_t combo_seq = 0;  ///< ordered combos, 4 bits each
  /// The core::SchemeId this recipe realizes on the emulation-precision
  /// ladder, or -1 for direct backends and custom recipes that match no
  /// named rung. Derived from (split, planes, combos) at key construction;
  /// carried in the key so scheme identity is part of the cached plan's
  /// observable contract (obs counters, plan introspection).
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
  /// Sizes the packs (growing, never shrinking, their storage) to fit
  /// `planes` split planes of an (m x k) x (k x n) problem. The execute
  /// pipeline then splits into them by row ranges.
  void ensure(std::size_t m, std::size_t n, std::size_t k, int planes);

  PackedPlanesA& packed_a() noexcept { return apack_; }
  PackedPlanesB& packed_b() noexcept { return bpack_; }

 private:
  PackedPlanesA apack_;
  PackedPlanesB bpack_;
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

/// An immutable execution recipe, created once per (shape, recipe) by a
/// GemmContext and shared via the cache. Thread-safe to execute
/// concurrently (all mutable state lives in the leased workspace and the
/// caller-owned D).
class GemmPlan {
 public:
  std::size_t m() const noexcept { return key_.m; }
  std::size_t n() const noexcept { return key_.n; }
  std::size_t k() const noexcept { return key_.k; }
  /// True for plain binary32 backends (no plane decomposition).
  bool direct() const noexcept { return key_.direct; }
  /// The backend the recipe was normalized from (timing dispatch target).
  Backend backend() const noexcept { return key_.backend; }
  ComboOrder order() const noexcept { return key_.order; }
  core::SplitMethod split() const noexcept { return key_.split; }
  int planes() const noexcept { return key_.planes; }
  /// The emulation-ladder rung this plan realizes (core/scheme.hpp), when
  /// its recipe matches one; nullopt for direct backends and custom
  /// emulated recipes.
  std::optional<core::SchemeId> scheme_id() const noexcept {
    if (key_.direct || key_.scheme < 0) return std::nullopt;
    return static_cast<core::SchemeId>(key_.scheme);
  }
  std::span<const PlaneCombo> combos() const noexcept { return combos_; }
  /// Steady-state workspace footprint of one execute(): the packed planes
  /// of A and B, padded to whole 16-row / 16-column blocks.
  std::size_t workspace_bytes() const noexcept { return workspace_bytes_; }
  const PlanKey& key() const noexcept { return key_; }

  /// Runs the plan: D = A x B (+ C) into caller-owned `d` (resized in
  /// place). A/B/C extents must match the planned shape. Allocation-free
  /// once `d` and the context's workspace pool have warmed up. This is
  /// the one-item case of the pipeline execute_grouped runs.
  void execute(GemmContext& ctx, const Matrix& a, const Matrix& b,
               const Matrix* c, Matrix& d) const;

  /// Simulated execution time on `spec` for the planned shape, dispatched
  /// like time_gemm, on the Table 4 tiling (table4_config(), the §6
  /// solver's pick; egemm_timing with EgemmOptions::tile models any
  /// other). Custom emulated recipes (plan_emulated) are modeled as the
  /// Alg. 1 EGEMM schedule. Requires a non-degenerate shape.
  KernelTiming timing(const tcsim::GpuSpec& spec) const;

 private:
  friend class GemmContext;
  explicit GemmPlan(const PlanKey& key);

  PlanKey key_;
  std::vector<PlaneCombo> combos_;
  std::size_t workspace_bytes_ = 0;
};

/// One item of a grouped execute (GemmContext::execute_grouped): a planned
/// GEMM plus its operands. Plans may mix shapes, schemes and backends
/// freely; direct-backend items run inline, ahead of the
/// emulated stream, and record under the batch's id.
struct GroupedGemm {
  std::shared_ptr<const GemmPlan> plan;
  const Matrix* a = nullptr;
  const Matrix* b = nullptr;
  const Matrix* c = nullptr;  ///< optional accumulator input
  Matrix* d = nullptr;        ///< caller-owned output, resized in place
};

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
    for (const Matrix* input : {item.a, item.b, item.c}) {
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
  /// binary32 backends plan direct; kCublasTcEmulation plans Alg. 1 as
  /// separate passes; every other emulated backend plans its ladder rung
  /// (kEgemmTC: round-2term, kCublasTcHalf: half, kMarkidis: markidis).
  std::shared_ptr<const GemmPlan> plan(Backend backend, std::size_t m,
                                       std::size_t n, std::size_t k);

  /// Plan a named rung of the emulation-precision ladder
  /// (core/scheme.hpp) for the shape: the canonical executable recipe
  /// whose plan classifies back to `scheme` (plan->scheme_id()).
  std::shared_ptr<const GemmPlan> plan_scheme(core::SchemeId scheme,
                                              std::size_t m, std::size_t n,
                                              std::size_t k);

  /// Plan for a custom emulated recipe: `combos` is the ordered
  /// split-product sequence over `planes` planes.
  std::shared_ptr<const GemmPlan> plan_emulated(
      std::size_t m, std::size_t n, std::size_t k, core::SplitMethod split,
      std::span<const PlaneCombo> combos, ComboOrder order, int planes = 2);

  /// A resolved accuracy contract: the per-rung bound table plus (when
  /// feasible) the plan for the cheapest provably sufficient rung.
  struct ContractPlan {
    core::ContractResolution resolution;
    std::shared_ptr<const GemmPlan> plan;  ///< null when infeasible
  };

  /// Resolves an accuracy contract for D = A x B (+ C) at the given shape
  /// and plans the selected scheme. The contract's scales must be the
  /// caller's element-magnitude context (max |A|, max |B|, max |C|); this
  /// layer cannot derive them from data -- gemm_ex's contract overload
  /// can. When no rung meets the target, `plan` is null and
  /// resolution.feasible is false (no throw: planning is noexcept-ish by
  /// convention; the executing APIs raise the error).
  ContractPlan plan_contract(std::size_t m, std::size_t n, std::size_t k,
                             const core::AccuracyContract& contract);

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

}  // namespace egemm::gemm
