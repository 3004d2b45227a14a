#include "util/thread_pool.hpp"

#include <atomic>
#include <algorithm>
#include <chrono>
#include <exception>

#include "util/metrics.hpp"

namespace mpe::util {

namespace {

/// Pool health metrics: task throughput, instantaneous queue depth, and
/// queue wait time (enqueue -> dequeue, steady clock). Gauge deltas are
/// balanced across enqueue/dequeue so the merged depth is exact even when
/// different threads perform the two halves. Catalog in
/// docs/OBSERVABILITY.md.
struct PoolMetrics {
  util::Counter tasks;
  util::Counter parallel_fors;
  util::Counter parallel_indices;
  util::Gauge queue_depth;
  util::Histogram task_wait_ns;

  PoolMetrics() {
    auto& reg = util::MetricRegistry::global();
    tasks = reg.counter("mpe_pool_tasks_total");
    parallel_fors = reg.counter("mpe_pool_parallel_for_total");
    parallel_indices = reg.counter("mpe_pool_parallel_indices_total");
    queue_depth = reg.gauge("mpe_pool_queue_depth");
    task_wait_ns = reg.histogram("mpe_pool_task_wait_ns");
  }
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& th : threads_) th.join();
}

void ThreadPool::post(std::function<void()> job) {
  Task task{std::move(job), 0};
  if (MetricRegistry::global().enabled()) {
    task.enqueue_ns = steady_now_ns();
    pool_metrics().tasks.inc();
    pool_metrics().queue_depth.add(1);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // enqueue_ns == 0 marks a task enqueued while metrics were off; skip it
    // rather than record a bogus epoch-sized wait (and keep the gauge
    // balanced: only entries that added a delta subtract one).
    if (task.enqueue_ns != 0 && MetricRegistry::global().enabled()) {
      pool_metrics().queue_depth.sub(1);
      const std::uint64_t now = steady_now_ns();
      pool_metrics().task_wait_ns.observe(
          now > task.enqueue_ns ? now - task.enqueue_ns : 0);
    }
    task.job();
  }
}

void ThreadPool::parallel_for_slotted(
    std::size_t begin, std::size_t end,
    const std::function<void(unsigned, std::size_t)>& body) {
  if (begin >= end) return;
  pool_metrics().parallel_fors.inc();
  pool_metrics().parallel_indices.inc(
      static_cast<std::uint64_t>(end - begin));

  struct Shared {
    std::atomic<std::size_t> next;
    std::size_t end;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
  };
  auto shared = std::make_shared<Shared>();
  shared->next.store(begin);
  shared->end = end;

  auto run_slot = [shared, &body](unsigned slot) {
    for (;;) {
      const std::size_t i = shared->next.fetch_add(1);
      if (i >= shared->end || shared->failed.load(std::memory_order_relaxed))
        break;
      try {
        body(slot, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared->error_mutex);
        if (!shared->error) shared->error = std::current_exception();
        shared->failed.store(true);
        break;
      }
    }
  };

  // One helper per worker, but never more helpers than remaining indices
  // (the caller claims work too, hence the -1).
  const std::size_t count = end - begin;
  const unsigned helpers = static_cast<unsigned>(
      std::min<std::size_t>(size(), count > 0 ? count - 1 : 0));
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (unsigned h = 0; h < helpers; ++h) {
    futures.push_back(submit([run_slot, h] { run_slot(h + 1); }));
  }
  run_slot(0);  // caller is slot 0
  for (auto& f : futures) f.get();  // run_slot never throws; this just joins
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace mpe::util
