#include "util/thread_pool.hpp"

#include <algorithm>
#include <latch>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace egemm::util {

namespace {

/// The pool whose body the calling thread runs: a worker's own pool, or a
/// caller's while it runs chunks or an inline range.
thread_local const ThreadPool* tl_worker_pool = nullptr;

/// Spin budget before an idle thread parks: it bridges the gaps between
/// the pool passes of back-to-back small GEMMs, which a futex wakeup would
/// stretch by ~10 us. A pooled call's regions split and multiply on the
/// pool in one pass, so the widest gap is a run of calls under
/// kSmallGemmInlineThreshold that execute wholly on the caller: 8-35 us
/// each for the 32..128 shape classes on a 4-vCPU AVX-512 Xeon VM (F16C
/// split), so several in a row. 200 us beat 50 us by 5% on the small-GEMM
/// median; spinning without PAUSE was slower than both.
constexpr std::uint64_t kSpinNs = 200'000;

/// Pause-spins until `ready(word)`, parking in std::atomic::wait once the
/// spin budget is spent; returns the ready value.
template <class Ready>
std::uint32_t spin_then_wait(const std::atomic<std::uint32_t>& word,
                             Ready ready) noexcept {
  const std::uint64_t deadline = obs::monotonic_ns() + kSpinNs;
  std::uint32_t value = word.load(std::memory_order_acquire);
  for (unsigned i = 1; !ready(value); ++i) {
    if (i % 16 == 0 && obs::monotonic_ns() > deadline) {
      word.wait(value, std::memory_order_acquire);
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
    value = word.load(std::memory_order_acquire);
  }
  return value;
}

/// Marks the calling thread as inside a body of `pool` until destroyed.
struct BodyScope {
  explicit BodyScope(const ThreadPool* pool) noexcept
      : saved(std::exchange(tl_worker_pool, pool)) {}
  ~BodyScope() { tl_worker_pool = saved; }
  BodyScope(const BodyScope&) = delete;
  BodyScope& operator=(const BodyScope&) = delete;
  const ThreadPool* saved;
};

template <class Run>
void call_chunk(const void* run, std::size_t chunk, std::size_t slot) {
  (*static_cast<const Run*>(run))(chunk, slot);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads != 0 ? threads
                         : std::max(1u, std::thread::hardware_concurrency())),
      slots_(std::make_unique<WorkerSlot[]>(size_)) {
  EGEMM_GAUGE_ADD("threadpool.workers", size_);
  // Return only once every worker has registered with obs: a worker still
  // registering when a short program exits races the static destructor of
  // the trace registry ("double free or corruption" at exit).
  std::latch ready(static_cast<std::ptrdiff_t>(size_ - 1));
  for (std::size_t slot = 1; slot < size_; ++slot) {
    workers_.emplace_back([this, slot, &ready] { worker_loop(slot, ready); });
  }
  ready.wait();
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& worker : workers_) worker.join();
  EGEMM_GAUGE_ADD("threadpool.workers", -static_cast<std::int64_t>(size_));
}

bool ThreadPool::in_worker_thread() const noexcept {
  return tl_worker_pool == this;
}

bool ThreadPool::dispatch(std::size_t chunks, ChunkFn fn, const void* ctx) {
  // Inline when nested, single-threaded or busy (see the header).
  std::unique_lock lock(dispatch_mutex_, std::defer_lock);
  if (in_worker_thread() || size_ <= 1 || !lock.try_lock()) {
    slots_[0].inline_tasks.fetch_add(1, std::memory_order_relaxed);
    EGEMM_COUNTER_ADD("threadpool.inline_tasks", 1);
    return false;
  }
  EGEMM_EXPECTS(chunks == static_cast<std::uint32_t>(chunks));  // done_ fits
  fn_ = fn;
  ctx_ = ctx;
  chunks_ = chunks;
  error_set_.store(false, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  remaining_.store(chunks, std::memory_order_release);
  if (chunks > 1) {
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
  }
  {
    const BodyScope scope(this);
    run_claims(0);
  }
  spin_then_wait(done_, [chunks](auto done) { return done == chunks; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  return true;
}

void ThreadPool::run_claims(std::size_t slot) noexcept {
  for (std::size_t left = remaining_.load(std::memory_order_acquire);
       left != 0;) {
    if (!remaining_.compare_exchange_weak(left, left - 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      continue;
    }
    // Holding a claim: the descriptor is this call's until done_ counts
    // it, and everything here (stats included) happens before the return.
    const std::size_t total = chunks_;
    const std::uint64_t start = obs::monotonic_ns();
    try {
      fn_(ctx_, total - left, slot);
    } catch (...) {
      if (!error_set_.exchange(true, std::memory_order_relaxed)) {
        error_ = std::current_exception();
      }
    }
    const std::uint64_t busy = obs::monotonic_ns() - start;
    slots_[slot].tasks.fetch_add(1, std::memory_order_relaxed);
    slots_[slot].busy_ns.fetch_add(busy, std::memory_order_relaxed);
    EGEMM_COUNTER_ADD("threadpool.tasks", 1);
    EGEMM_COUNTER_ADD("threadpool.busy_ns", busy);
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      done_.notify_one();
    }
    left = remaining_.load(std::memory_order_acquire);
  }
}

void ThreadPool::parallel_for(
    std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  std::size_t chunks = std::min(count, size() * 4);
  if (grain > 1) chunks = std::min(chunks, (count + grain - 1) / grain);
  const std::size_t chunk = (count + chunks - 1) / chunks;
  const auto run = [&](std::size_t i, std::size_t /*slot*/) {
    body(i * chunk, std::min(count, (i + 1) * chunk));
  };
  if (!dispatch((count + chunk - 1) / chunk, &call_chunk<decltype(run)>,
                &run)) {
    const BodyScope scope(this);
    body(0, count);
  }
}

void ThreadPool::for_each_task(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  using Body = std::function<void(std::size_t, std::size_t)>;
  if (!dispatch(count, &call_chunk<Body>, &body)) {
    const BodyScope scope(this);
    for (std::size_t task = 0; task < count; ++task) body(task, size_);
  }
}

void ThreadPool::worker_loop(std::size_t slot, std::latch& ready) {
  tl_worker_pool = this;
  obs::set_thread_name("pool-worker-" + std::to_string(slot));
  ready.count_down();
  for (std::uint32_t seen = 0;;) {
    seen = spin_then_wait(epoch_, [seen](auto epoch) { return epoch != seen; });
    if (stopping_.load(std::memory_order_acquire)) return;
    run_claims(slot);
  }
}

std::vector<WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> stats(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const WorkerSlot& slot = slots_[i];
    stats[i].tasks_executed = slot.tasks.load(std::memory_order_relaxed);
    stats[i].inline_tasks = slot.inline_tasks.load(std::memory_order_relaxed);
    stats[i].busy_ns = slot.busy_ns.load(std::memory_order_relaxed);
  }
  return stats;
}

WorkerStats ThreadPool::total_stats() const {
  WorkerStats total;
  for (const WorkerStats& stats : worker_stats()) {
    total.tasks_executed += stats.tasks_executed;
    total.inline_tasks += stats.inline_tasks;
    total.busy_ns += stats.busy_ns;
  }
  return total;
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace egemm::util
