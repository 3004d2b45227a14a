// Deadlines and cooperative cancellation for long-running estimation work.
//
// Production runs need two ways out of a loop that refuses to converge: a
// wall-clock budget (Deadline) and an external kill switch (a
// CancellationToken flipped from another thread, e.g. a signal handler or an
// RPC timeout). Both are *cooperative*: hot loops poll RunControl at natural
// checkpoints (once per hyper-sample index) and wind down, returning
// whatever partial result they have with an explicit stop reason — nothing
// is ever torn down mid-computation.
//
// A default-constructed token/deadline is inert (never fires), so threading
// a RunControl through an API costs nothing for callers that don't use it.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

namespace mpe::util {

/// Cooperative cancellation flag. Default-constructed tokens are inert
/// (never cancelled, request_stop() is a no-op); CancellationToken::create()
/// makes a live token whose copies all share one flag, so any holder can
/// stop every loop polling any copy.
class CancellationToken {
 public:
  CancellationToken() = default;  ///< inert: stop_requested() is always false

  /// A live token with fresh shared state.
  static CancellationToken create();

  /// True when this token can actually be cancelled.
  bool cancellable() const { return flag_ != nullptr; }

  /// Requests every loop observing this token (or a copy) to stop. No-op on
  /// an inert token. Safe to call from any thread, repeatedly.
  void request_stop() const;

  /// True once request_stop() has been called on any copy.
  bool stop_requested() const;

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Wall-clock budget against std::chrono::steady_clock. Default-constructed
/// deadlines are unlimited.
class Deadline {
 public:
  Deadline() = default;  ///< unlimited: never expires

  /// Expires `budget` from now.
  static Deadline after(std::chrono::nanoseconds budget);

  /// Expires at the given instant.
  static Deadline at(std::chrono::steady_clock::time_point when);

  bool unlimited() const { return !when_.time_since_epoch().count(); }
  bool expired() const;

  /// Time left, clamped at zero; a very large value when unlimited.
  std::chrono::nanoseconds remaining() const;

 private:
  // time_point{} (epoch) marks "unlimited" — a real steady_clock reading is
  // never the epoch on any platform we target.
  std::chrono::steady_clock::time_point when_{};
};

/// Why a cooperative loop was asked to stop.
enum class StopCause { kNone = 0, kCancelled, kDeadline };

/// The pair of brakes threaded through long-running entry points. Copies are
/// cheap and share the cancellation flag.
struct RunControl {
  CancellationToken cancel;
  Deadline deadline;

  /// Polled by hot loops: cancellation first (cheap atomic load), then the
  /// clock. kNone means keep going.
  StopCause should_stop() const {
    if (cancel.stop_requested()) return StopCause::kCancelled;
    if (deadline.expired()) return StopCause::kDeadline;
    return StopCause::kNone;
  }

  /// True when either brake can ever fire (lets loops skip polling the
  /// clock entirely on unlimited runs).
  bool active() const { return cancel.cancellable() || !deadline.unlimited(); }
};

}  // namespace mpe::util
