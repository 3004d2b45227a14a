#include "server/local_executor.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

namespace mpe::server {

LocalExecutor::LocalExecutor(maxpower::CircuitCache& cache,
                             std::string state_dir,
                             std::size_t trace_capacity, std::size_t slots,
                             const dist::Waker& waker)
    : cache_(cache),
      state_dir_(std::move(state_dir)),
      trace_capacity_(trace_capacity),
      waker_(waker),
      // One worker per executor slot: ServerCore already caps concurrent
      // grants at max_active, so the pool never queues more than that.
      pool_(static_cast<unsigned>(std::max<std::size_t>(1, slots))) {}

void LocalExecutor::start(ServerCore::Started started) {
  Active job;
  job.ticket = started.ticket;
  job.cancel = started.cancel;
  if (trace_capacity_ > 0) {
    job.tracer = std::make_shared<util::Tracer>(trace_capacity_);
  }
  auto tracer = job.tracer;
  maxpower::CircuitCache* cache = &cache_;
  const dist::Waker* waker = &waker_;
  std::string state_dir = state_dir_;
  // The promise is fulfilled before the wake-up, so the woken loop always
  // finds the result ready.
  std::promise<ExecJobResult> result;
  job.result = result.get_future();
  pool_.submit([spec = std::move(started), tracer, cache, waker,
                state_dir = std::move(state_dir),
                result = std::move(result)]() mutable {
    try {
      result.set_value(execute_job(spec, tracer.get(), *cache, state_dir));
    } catch (...) {
      result.set_exception(std::current_exception());  // rethrown by pump()
    }
    waker->wake();
  });
  active_.push_back(std::move(job));
}

bool LocalExecutor::pump(Clock::time_point /*now*/,
                         std::vector<ExecEvent>& events,
                         std::vector<ExecCompletion>& completions) {
  bool activity = false;
  for (ExecCompletion& c : done_) {
    completions.push_back(std::move(c));
    activity = true;
  }
  done_.clear();
  for (auto it = active_.begin(); it != active_.end();) {
    Active& job = *it;
    if (job.tracer != nullptr) {
      for (const util::TraceEvent& ev : job.tracer->events()) {
        if (ev.seq < job.next_seq) continue;
        events.push_back({job.ticket, ev.seq, ev.name, ev.fields});
        job.next_seq = ev.seq + 1;
        activity = true;
      }
    }
    if (job.result.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      ExecJobResult done = job.result.get();
      completions.push_back(
          {job.ticket, std::move(done.outcome), std::move(done.report)});
      it = active_.erase(it);
      activity = true;
      continue;
    }
    ++it;
  }
  return activity;
}

LocalExecutor::Clock::time_point LocalExecutor::next_deadline(
    Clock::time_point now) const {
  const bool traced =
      std::any_of(active_.begin(), active_.end(),
                  [](const Active& a) { return a.tracer != nullptr; });
  return traced ? now + kEventFlush : Clock::time_point::max();
}

void LocalExecutor::stop_all() {
  // Stop stragglers cooperatively, then block for their (partial) results —
  // still exactly one completion per started job, delivered by next pump().
  for (Active& job : active_) job.cancel.request_stop();
  for (Active& job : active_) {
    ExecJobResult done = job.result.get();
    done_.push_back(
        {job.ticket, std::move(done.outcome), std::move(done.report)});
  }
  active_.clear();
}

}  // namespace mpe::server
