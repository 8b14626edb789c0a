#pragma once
// Persistent-worker fork-join pool used to parallelize functional GEMM
// tiles and Monte-Carlo profiling sweeps across host cores (DESIGN.md §18).
// for_each_task runs a caller's own tasks: the GEMM engine's region pass.
//
// A pool of size() n runs n-1 workers beside the calling thread. A call
// writes one descriptor (chunk function, context, chunk count, exception
// slot), publishes the count in the `remaining_` claim word and bumps the
// wake epoch. Every thread claims chunks by CAS-decrementing `remaining_`
// and reads the descriptor only while it holds an unfinished claim. The
// call returns when `done_` reaches the count -- no thread is left in the
// body -- and only then rethrows the first exception. Idle threads
// pause-spin for kSpinNs, then park in std::atomic::wait. Nested calls
// from inside a body, calls on one-thread pools and calls that find the
// pool busy run their whole range inline on the calling thread.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace egemm::util {

/// Per-slot execution counters (DESIGN.md §12). Slot 0 is the calling
/// thread's -- chunks a caller runs itself are billed there -- and slots
/// 1..size()-1 the workers'. `inline_tasks`, all in slot 0, counts bodies
/// run inline: nested calls (their time is already in the enclosing chunk's
/// `busy_ns`) and whole-range calls on one-thread or busy pools.
struct WorkerStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t inline_tasks = 0;
  std::uint64_t busy_ns = 0;
};

class ThreadPool {
 public:
  /// A pool of `threads` threads counting the caller, so `threads` - 1
  /// workers; 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return size_; }

  /// True while the calling thread runs a body of this pool.
  bool in_worker_thread() const noexcept;

  /// Splits [0, count) into roughly even chunks (~4 per thread), runs
  /// `body(begin, end)` on the pool, and returns once every chunk finished.
  /// Exceptions propagate to the caller (first one wins) after that.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& body) {
    parallel_for(count, /*grain=*/0, body);
  }

  /// parallel_for with a lower bound on items per chunk: chunks never carry
  /// fewer than `grain` items (except the last), so fine-grained streams
  /// keep per-chunk work above the dispatch overhead. grain 0 or 1 is the
  /// plain ~4-chunks-per-thread split above.
  void parallel_for(std::size_t count, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Runs body(task, slot) once for every task in [0, count), each task
  /// its own claim, claimed in ascending order (so a caller that orders
  /// its tasks largest first has them started largest first). `slot` is
  /// the pool slot running the task: 0 the calling thread, 1..size()-1 the
  /// workers. Only one call dispatches at a time, so a caller may keep
  /// state per slot without locks. When the call runs inline (nested,
  /// one-thread or busy pool), every task runs on the calling thread with
  /// slot == size(). Same exception behavior as parallel_for.
  void for_each_task(std::size_t count,
                     const std::function<void(std::size_t, std::size_t)>& body);

  /// Point-in-time copy of every slot's counters (size() entries).
  std::vector<WorkerStats> worker_stats() const;

  /// All slots' counters summed.
  WorkerStats total_stats() const;

 private:
  using ChunkFn = void (*)(const void* ctx, std::size_t chunk,
                           std::size_t slot);

  /// One cache line per slot: relaxed hot-path updates never false-share.
  struct alignas(64) WorkerSlot {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> inline_tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  /// Runs fn(ctx, i, slot) for i in [0, chunks) on the pool. Returns false,
  /// having counted an inline task, when the caller must run the range
  /// inline.
  bool dispatch(std::size_t chunks, ChunkFn fn, const void* ctx);
  void run_claims(std::size_t slot) noexcept;
  void worker_loop(std::size_t slot, std::latch& ready);

  std::size_t size_;
  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerSlot[]> slots_;
  std::mutex dispatch_mutex_;  ///< held for the whole of one call

  // The descriptor of the call in flight.
  ChunkFn fn_ = nullptr;
  const void* ctx_ = nullptr;
  std::size_t chunks_ = 0;
  std::exception_ptr error_;
  std::atomic<bool> error_set_{false};

  alignas(64) std::atomic<std::size_t> remaining_{0};  ///< unclaimed chunks
  alignas(64) std::atomic<std::uint32_t> done_{0};     ///< finished chunks
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> stopping_{false};
};

/// Process-wide pool shared by the functional kernels.
ThreadPool& global_pool();

}  // namespace egemm::util
