// Tests for the infrastructure: RNG, thread pool, CLI parsing, tables.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace egemm::util {
namespace {

TEST(Rng, DeterministicBySeed) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  Xoshiro256 a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2() != c()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100000; ++i) {
    const float f = rng.uniform(-1.0f, 1.0f);
    EXPECT_GE(f, -1.0f);
    EXPECT_LT(f, 1.0f);
    const double d = rng.uniform_double(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Xoshiro256 rng(11);
  std::vector<int> buckets(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++buckets[rng.below(10)];
  }
  for (const int count : buckets) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 100);
  }
}

TEST(Rng, NormalSamplerHasPlausibleMoments) {
  NormalSampler normal(5);
  double sum = 0.0, sumsq = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = normal.next();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sumsq / kDraws, 1.0, 0.02);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachTaskRunsEveryTaskOnceOnItsSlot) {
  // Every task runs exactly once, on the slot its thread owns: no two
  // threads ever report one slot, so a caller can keep state per slot.
  // Nested inside a body, the whole range runs inline with slot size().
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<std::atomic<std::thread::id>> owner(pool.size());
  std::atomic<bool> slot_shared{false};
  pool.for_each_task(kTasks, [&](std::size_t task, std::size_t slot) {
    ASSERT_LT(slot, pool.size());
    runs[task].fetch_add(1);
    std::thread::id none;
    const std::thread::id self = std::this_thread::get_id();
    if (!owner[slot].compare_exchange_strong(none, self) && none != self) {
      slot_shared = true;
    }
  });
  for (const auto& count : runs) EXPECT_EQ(count.load(), 1);
  EXPECT_FALSE(slot_shared.load());

  std::vector<std::size_t> nested_slots;
  pool.parallel_for(1, [&](std::size_t, std::size_t) {
    pool.for_each_task(3, [&](std::size_t, std::size_t slot) {
      nested_slots.push_back(slot);
    });
  });
  EXPECT_EQ(nested_slots, std::vector<std::size_t>(3, pool.size()));
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t b, std::size_t) {
                          if (b == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

/// Holds each chunk until `n` chunks have started, so a call of n chunks
/// provably runs them on n distinct threads -- at least one of them a pool
/// worker, since the caller can hold only one. False if the deadline passed.
bool rendezvous(std::atomic<int>& arrived, int n) {
  arrived.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.load() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // A nested parallel_for that dispatched again from inside a chunk would
  // wait on a call only this pool's own (busy) threads can serve. Inside
  // any body -- on a worker or on the caller running its share -- the
  // pool must detect the context and run the nested range inline: one
  // body call per nested call, on the same thread. The outer chunks
  // rendezvous, so at least one of them runs on a worker.
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(64);
  std::atomic<int> inner_calls{0};
  std::atomic<int> arrived{0};
  std::atomic<int> on_worker{0};
  pool.parallel_for(2, [&](std::size_t b, std::size_t e) {
    EXPECT_TRUE(rendezvous(arrived, 2));
    EXPECT_TRUE(pool.in_worker_thread());
    const auto self = std::this_thread::get_id();
    if (self != caller) on_worker.fetch_add(1);
    for (std::size_t o = 2 * b; o < 2 * e; ++o) {
      pool.parallel_for(16, [&](std::size_t ib, std::size_t ie) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        inner_calls.fetch_add(1);
        for (std::size_t i = ib; i < ie; ++i) hits[o * 16 + i].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(inner_calls.load(), 4);
  EXPECT_GE(on_worker.load(), 1);
  EXPECT_FALSE(pool.in_worker_thread());
}

TEST(ThreadPool, InWorkerThreadDistinguishesPools) {
  ThreadPool a(2), b(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<int> on_worker{0};
  a.parallel_for(2, [&](std::size_t, std::size_t) {
    EXPECT_TRUE(rendezvous(arrived, 2));
    if (std::this_thread::get_id() != caller) on_worker.fetch_add(1);
    EXPECT_TRUE(a.in_worker_thread());
    EXPECT_FALSE(b.in_worker_thread());
  });
  EXPECT_GE(on_worker.load(), 1);
  EXPECT_FALSE(a.in_worker_thread());
  EXPECT_FALSE(b.in_worker_thread());
}

TEST(ThreadPool, WorkerStatsCountTasksAndBusyTime) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.total_stats().tasks_executed, 0u);
  constexpr auto kSpin = std::chrono::microseconds(200);
  std::atomic<int> ran{0};
  for (int call = 0; call < 8; ++call) {
    // Four items on a two-thread pool: four one-item chunks per call.
    pool.parallel_for(4, [&ran, kSpin](std::size_t b, std::size_t e) {
      // Spin long enough that busy_ns is visibly non-zero even on a
      // coarse steady_clock.
      const auto until = std::chrono::steady_clock::now() + kSpin;
      while (std::chrono::steady_clock::now() < until) {
      }
      ran.fetch_add(static_cast<int>(e - b));
    });
  }
  EXPECT_EQ(ran.load(), 32);
  const WorkerStats total = pool.total_stats();
  EXPECT_EQ(total.tasks_executed, 32u);
  EXPECT_EQ(total.inline_tasks, 0u);
  // Each chunk's spin lies inside the busy time billed for it.
  EXPECT_GE(total.busy_ns,
            32u * static_cast<std::uint64_t>(
                      std::chrono::nanoseconds(kSpin).count()));
  const std::vector<WorkerStats> per_worker = pool.worker_stats();
  ASSERT_EQ(per_worker.size(), 2u);
  std::uint64_t summed = 0;
  for (const WorkerStats& stats : per_worker) summed += stats.tasks_executed;
  EXPECT_EQ(summed, 32u);

  // Billing: a three-thread pool is the caller plus two workers. Three
  // chunks that rendezvous run one on each of them, so every slot counts
  // exactly one chunk -- and slot 0 holds the one the caller ran itself.
  ThreadPool three(3);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<int> on_caller{0};
  three.parallel_for(3, [&](std::size_t, std::size_t) {
    EXPECT_TRUE(rendezvous(arrived, 3));
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  EXPECT_EQ(on_caller.load(), 1);
  const std::vector<WorkerStats> slots = three.worker_stats();
  ASSERT_EQ(slots.size(), 3u);
  for (const WorkerStats& stats : slots) {
    EXPECT_EQ(stats.tasks_executed, 1u);
    EXPECT_GT(stats.busy_ns, 0u);
  }
  EXPECT_EQ(three.total_stats().inline_tasks, 0u);
}

TEST(ThreadPool, StatsSurviveReentrantInlinePath) {
  // A nested parallel_for from inside a chunk runs inline (no dispatch);
  // the counters must record it as an inline task without double-counting
  // it as a dispatched chunk or losing the enclosing chunk's accounting.
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.parallel_for(4, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      pool.parallel_for(2, [&](std::size_t ib, std::size_t ie) {
        inner.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(inner.load(), 8);
  const WorkerStats total = pool.total_stats();
  // One dispatched chunk per outer item (a two-thread pool caps chunks at
  // 8), one inline record per nested call.
  EXPECT_GT(total.tasks_executed, 0u);
  EXPECT_LE(total.tasks_executed, 8u);
  EXPECT_EQ(total.inline_tasks, 4u);
}

TEST(ThreadPool, SingleWorkerPoolRunsParallelForInline) {
  // A one-thread pool has no workers, so the whole range must run inline
  // on the caller: no dispatched chunks, one inline record.
  ThreadPool pool(1);
  std::vector<int> hits(16, 0);
  const auto caller = std::this_thread::get_id();
  std::thread::id body_thread;
  pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
    body_thread = std::this_thread::get_id();
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(body_thread, caller);
  for (const int h : hits) EXPECT_EQ(h, 1);

  const WorkerStats total = pool.total_stats();
  EXPECT_EQ(total.tasks_executed, 0u);
  EXPECT_EQ(total.inline_tasks, 1u);
}

/// Shared failure-path check: `run(body)` dispatches 16 unit chunks whose
/// index is handed to `body`. Chunk 0 throws at once, chunk 1 throws 50 ms
/// later, the rest sleep briefly and then write into a caller-stack vector.
template <class Run>
void expect_first_error_after_all_chunks(Run run) {
  constexpr std::size_t kChunks = 16;
  std::vector<int> written(kChunks, 0);
  try {
    run([&written](std::size_t i) {
      if (i == 0) throw std::runtime_error("first");
      if (i == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::runtime_error("second");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      written[i] = 1;
    });
    ADD_FAILURE() << "no exception propagated";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The call joined every chunk before it rethrew.
  for (std::size_t i = 2; i < kChunks; ++i) EXPECT_EQ(written[i], 1) << i;
}

TEST(ThreadPool, ParallelForThrowLeavesDefinedStateAndPoolReusable) {
  ThreadPool pool(4);
  expect_first_error_after_all_chunks([&pool](auto chunk) {
    // 16 items on a four-thread pool: sixteen one-item chunks.
    pool.parallel_for(16, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) chunk(i);
    });
  });
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachTaskThrowLeavesDefinedStateAndPoolReusable) {
  // The GEMM engine's region pass runs through for_each_task: a throwing
  // task must not leave another still running when the first error
  // reaches the caller, and the pool must run a full pass afterwards. No
  // task runs for an empty list.
  ThreadPool pool(4);
  expect_first_error_after_all_chunks([&pool](auto chunk) {
    pool.for_each_task(16, [&](std::size_t task, std::size_t) { chunk(task); });
  });
  std::vector<std::atomic<int>> runs(64);
  pool.for_each_task(runs.size(), [&](std::size_t task, std::size_t) {
    runs[task].fetch_add(1);
  });
  for (const auto& count : runs) EXPECT_EQ(count.load(), 1);
  bool called = false;
  pool.for_each_task(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Cli, ParsesFlagsValuesAndLists) {
  const char* argv[] = {"prog",          "--full",     "--sizes=1,2,3",
                        "--gpu",         "t4",         "--trials=100",
                        "--scale=0.5",   "positional"};
  const CliArgs args(8, argv);
  EXPECT_TRUE(args.has_flag("full"));
  EXPECT_FALSE(args.has_flag("missing"));
  EXPECT_EQ(args.value_or("gpu", std::string("x")), "t4");
  EXPECT_EQ(args.value_or("trials", std::int64_t{0}), 100);
  EXPECT_DOUBLE_EQ(args.value_or("scale", 1.0), 0.5);
  const auto sizes = args.int_list_or("sizes", {});
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 1);
  EXPECT_EQ(sizes[2], 3);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv);
  EXPECT_EQ(args.value_or("n", std::int64_t{7}), 7);
  const auto def = args.int_list_or("sizes", {128, 256});
  ASSERT_EQ(def.size(), 2u);
  EXPECT_EQ(def[1], 256);
}

TEST(Table, RendersAlignedRowsAndNotes) {
  Table table("Demo");
  table.set_header({"a", "longer"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  table.add_footnote("note text");
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("note text"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_speedup(2.5), "2.50x");
  EXPECT_EQ(fmt_sci(0.000123, 2), "1.23e-04");
}

}  // namespace
}  // namespace egemm::util
