// In-process job execution: a thread pool sized to the server's executor
// slots, one engine run per job, trace events streamed from the
// per-job tracer ring. This is the classic `mpe_cli serve` shape, extracted
// behind the JobExecutor seam so the serve loop no longer cares where jobs
// run (fleet_executor.hpp is the other side of that seam). A job's runner
// thread wakes the serve loop through its Waker once the result is ready;
// while a traced job runs, the loop also wakes every kEventFlush to stream
// its events before the tracer ring overwrites them.
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "dist/transport.hpp"
#include "server/executor.hpp"
#include "server/job_runtime.hpp"
#include "util/thread_pool.hpp"

namespace mpe::server {

class LocalExecutor final : public JobExecutor {
 public:
  /// Trace events of running jobs are forwarded at least this often.
  static constexpr std::chrono::milliseconds kEventFlush{20};

  /// `cache` and `waker` must outlive the executor. `slots` is the
  /// concurrent-job cap (ServerCore already enforces it; the pool just
  /// matches it). `waker` is written each time a job's result is ready.
  LocalExecutor(maxpower::CircuitCache& cache, std::string state_dir,
                std::size_t trace_capacity, std::size_t slots,
                const dist::Waker& waker);

  void start(ServerCore::Started started) override;
  bool pump(Clock::time_point now, std::vector<ExecEvent>& events,
            std::vector<ExecCompletion>& completions) override;
  bool idle() const override { return active_.empty() && done_.empty(); }
  Clock::time_point next_deadline(Clock::time_point now) const override;
  void stop_all() override;

 private:
  struct Active {
    std::uint64_t ticket = 0;
    util::CancellationToken cancel;
    std::shared_ptr<util::Tracer> tracer;
    std::uint64_t next_seq = 0;  ///< first trace seq not yet forwarded
    std::future<ExecJobResult> result;
  };

  maxpower::CircuitCache& cache_;
  std::string state_dir_;
  std::size_t trace_capacity_ = 0;
  const dist::Waker& waker_;
  util::ThreadPool pool_;
  std::vector<Active> active_;
  /// Completions forced by stop_all(), delivered by the next pump().
  std::vector<ExecCompletion> done_;
};

}  // namespace mpe::server
