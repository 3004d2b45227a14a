#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace {

using mpe::util::ThreadPool;

TEST(ThreadPool, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManySubmittedTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  // Each body writes its own slot: no shared mutable state, the
  // TSan-friendly pattern the parallel pipeline uses throughout.
  std::vector<int> hits(1000, 0);
  pool.parallel_for_slotted(
      0, hits.size(), [&hits](unsigned, std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForSharedAtomicAccumulator) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for_slotted(1, 101, [&sum](unsigned, std::size_t i) {
    sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for_slotted(5, 5,
                            [&ran](unsigned, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSingleIndexRunsInCaller) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  unsigned seen_slot = 99;
  pool.parallel_for_slotted(0, 1, [&](unsigned slot, std::size_t) {
    seen = std::this_thread::get_id();
    seen_slot = slot;
  });
  EXPECT_EQ(seen, caller);
  EXPECT_EQ(seen_slot, 0u);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for_slotted(0, 100,
                                         [](unsigned, std::size_t i) {
                                           if (i == 37) {
                                             throw std::runtime_error(
                                                 "item 37");
                                           }
                                         }),
               std::runtime_error);
  // The pool must remain usable after a failed loop.
  std::atomic<int> counter{0};
  pool.parallel_for_slotted(0, 10,
                            [&counter](unsigned, std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, ParallelForDrainsWaveBeforeRethrow) {
  // The exception contract: the first exception is rethrown only after every
  // in-flight body has finished, so no body is running once the caller
  // regains control (the estimator relies on this to fold a consistent
  // computed prefix).
  ThreadPool pool(3);
  std::atomic<int> in_flight{0};
  try {
    pool.parallel_for_slotted(0, 200, [&](unsigned, std::size_t i) {
      ++in_flight;
      if (i == 10) {
        --in_flight;
        throw std::runtime_error("fault");
      }
      --in_flight;
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error&) {
    EXPECT_EQ(in_flight.load(), 0) << "bodies still running after rethrow";
  }
}

TEST(ThreadPool, ParallelForSlottedPropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for_slotted(0, 100,
                                         [](unsigned, std::size_t i) {
                                           if (i == 42) {
                                             throw std::runtime_error(
                                                 "item 42");
                                           }
                                         }),
               std::runtime_error);
  // Reusable afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for_slotted(0, 10,
                            [&counter](unsigned, std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, ParallelForAllBodiesThrowStillRethrowsOnce) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for_slotted(0, 50,
                                         [](unsigned, std::size_t) {
                                           throw std::runtime_error(
                                               "every body");
                                         }),
               std::runtime_error);
  std::atomic<int> counter{0};
  pool.parallel_for_slotted(0, 10,
                            [&counter](unsigned, std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, SubmitStillWorksAfterFailedParallelFor) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_slotted(0, 20,
                                [](unsigned, std::size_t) {
                                  throw std::runtime_error("x");
                                }),
      std::runtime_error);
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPool, ParallelForSlottedSlotIdsAreDense) {
  ThreadPool pool(3);
  const unsigned participants = pool.participants();
  EXPECT_EQ(participants, 4u);
  // Per-slot accumulation without locks: the per-worker-state pattern used
  // by the parallel DB builder.
  std::vector<long> per_slot(participants, 0);
  pool.parallel_for_slotted(0, 500, [&](unsigned slot, std::size_t i) {
    ASSERT_LT(slot, participants);
    per_slot[slot] += static_cast<long>(i);
  });
  EXPECT_EQ(std::accumulate(per_slot.begin(), per_slot.end(), 0L),
            500L * 499L / 2L);
}

TEST(ThreadPool, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.participants(), pool.size() + 1);
}

}  // namespace
