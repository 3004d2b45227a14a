// Reusable worker-thread pool: the one shared threading primitive of the
// library. Everything parallel (population builds, the speculative
// estimator pipeline, benches) goes through this instead of spawning raw
// std::thread fleets, so thread creation is paid once per pool, not once
// per operation.
//
// Three entry points:
//   * submit(f)                — run one task asynchronously, observe it via
//                                the returned std::future (exceptions
//                                propagate);
//   * post(f)                  — run one task asynchronously with no result
//                                and no future (f must not throw);
//   * parallel_for_slotted(..) — blocking loop over an index range; the
//                                caller participates as a worker, indices
//                                are handed out dynamically, and the first
//                                exception thrown by any body is rethrown in
//                                the caller after all work stops.
//
// Exception contract: when a body throws, the remaining indices are
// abandoned, every in-flight body finishes (the wave is drained), the first
// exception is rethrown in the caller, and the pool stays fully reusable.
//
// Determinism note: the pool never influences random streams. Callers that
// need reproducible results derive a counter-based RNG stream per index
// (see stream_seed() in util/rng.hpp) so the schedule cannot matter.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mpe::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of pool worker threads.
  unsigned size() const { return static_cast<unsigned>(threads_.size()); }

  /// Maximum concurrent executors of a parallel_for_slotted: workers + the
  /// caller.
  unsigned participants() const { return size() + 1; }

  /// Enqueues one task; the future carries its result or exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    post([task] { (*task)(); });
    return future;
  }

  /// Enqueues one fire-and-forget task. Nothing observes it, so `job` must
  /// not throw; its captures must keep alive whatever it touches.
  void post(std::function<void()> job);

  /// Runs body(slot, i) for every i in [begin, end), blocking until done.
  /// The caller thread participates, so a pool with N workers runs at most
  /// N + 1 bodies concurrently. Indices are claimed dynamically (no static
  /// partitioning), which keeps irregular workloads balanced. `slot` is a
  /// dense worker id in [0, participants()), 0 being the caller: use it to
  /// index per-worker scratch state (e.g. one simulator instance per slot)
  /// without locking. If any body throws, remaining indices are abandoned
  /// and the first exception is rethrown here.
  void parallel_for_slotted(
      std::size_t begin, std::size_t end,
      const std::function<void(unsigned slot, std::size_t index)>& body);

 private:
  /// Queue entry: the job plus its enqueue timestamp (steady-clock ns),
  /// captured only while metrics are enabled (0 otherwise) so the disabled
  /// path never pays for a clock read. Feeds mpe_pool_task_wait_ns.
  struct Task {
    std::function<void()> job;
    std::uint64_t enqueue_ns = 0;
  };

  void worker_loop();

  std::vector<std::thread> threads_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace mpe::util
