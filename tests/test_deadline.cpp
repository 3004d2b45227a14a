#include "util/deadline.hpp"

#include <gtest/gtest.h>

#include <chrono>

namespace {

using namespace std::chrono_literals;
using mpe::util::CancellationToken;
using mpe::util::Deadline;
using mpe::util::RunControl;
using mpe::util::StopCause;

TEST(CancellationTokenTest, DefaultConstructedIsInert) {
  const CancellationToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_FALSE(token.stop_requested());
  token.request_stop();  // no-op, must not crash
  EXPECT_FALSE(token.stop_requested());
}

TEST(CancellationTokenTest, CreateMakesLiveToken) {
  const CancellationToken token = CancellationToken::create();
  EXPECT_TRUE(token.cancellable());
  EXPECT_FALSE(token.stop_requested());
  token.request_stop();
  EXPECT_TRUE(token.stop_requested());
}

TEST(CancellationTokenTest, CopiesShareOneFlag) {
  const CancellationToken a = CancellationToken::create();
  const CancellationToken b = a;
  EXPECT_FALSE(b.stop_requested());
  a.request_stop();
  EXPECT_TRUE(b.stop_requested());
}

TEST(CancellationTokenTest, RequestStopIsIdempotent) {
  const CancellationToken token = CancellationToken::create();
  token.request_stop();
  token.request_stop();
  EXPECT_TRUE(token.stop_requested());
}

TEST(DeadlineTest, DefaultConstructedIsUnlimited) {
  const Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), 1h);
}

TEST(DeadlineTest, AfterExpiresOnceBudgetElapses) {
  // A zero budget is already elapsed at the first check (expired() uses >=
  // against a monotonic clock), so no wall-clock sleep is needed.
  const Deadline d = Deadline::after(0ns);
  EXPECT_FALSE(d.unlimited());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), 0ns);
}

TEST(DeadlineTest, GenerousBudgetNotExpiredImmediately) {
  const Deadline d = Deadline::after(1h);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), 0ns);
}

TEST(DeadlineTest, AtExpiresAtGivenInstant) {
  const Deadline d = Deadline::at(std::chrono::steady_clock::now() - 1s);
  EXPECT_FALSE(d.unlimited());
  EXPECT_TRUE(d.expired());
}

TEST(RunControlTest, DefaultIsInactiveAndNeverStops) {
  const RunControl control;
  EXPECT_FALSE(control.active());
  EXPECT_EQ(control.should_stop(), StopCause::kNone);
}

TEST(RunControlTest, CancellationWinsOverDeadline) {
  RunControl control;
  control.cancel = CancellationToken::create();
  control.deadline = Deadline::at(std::chrono::steady_clock::now() - 1ms);
  control.cancel.request_stop();
  // Both brakes fired; cancellation is reported first.
  EXPECT_EQ(control.should_stop(), StopCause::kCancelled);
}

TEST(RunControlTest, DeadlineReportedWhenOnlyClockFires) {
  RunControl control;
  control.deadline = Deadline::at(std::chrono::steady_clock::now() - 1ms);
  EXPECT_TRUE(control.active());
  EXPECT_EQ(control.should_stop(), StopCause::kDeadline);
}

TEST(RunControlTest, LiveTokenAloneMakesControlActive) {
  RunControl control;
  control.cancel = CancellationToken::create();
  EXPECT_TRUE(control.active());
  EXPECT_EQ(control.should_stop(), StopCause::kNone);
}

}  // namespace
