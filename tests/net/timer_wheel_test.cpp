// Unit tests for the hashed timing wheel, driven entirely by a synthetic
// clock (the wheel never reads time itself — that's what makes these
// deterministic).

#include "net/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ncpm::net {
namespace {

using std::chrono::milliseconds;
using Clock = TimerWheel::Clock;

class TimerWheelTest : public ::testing::Test {
 protected:
  Clock::time_point t0_{Clock::now()};

  std::vector<TimerWheel::TimerId> advance_to(TimerWheel& wheel, milliseconds offset) {
    std::vector<TimerWheel::TimerId> expired;
    wheel.advance(t0_ + offset, expired);
    return expired;
  }
};

TEST_F(TimerWheelTest, FiresAtTheScheduledTickNotBefore) {
  TimerWheel wheel(t0_, milliseconds(20), 512);
  const auto id = wheel.schedule(t0_, milliseconds(100));
  EXPECT_EQ(wheel.armed(), 1u);
  EXPECT_TRUE(advance_to(wheel, milliseconds(80)).empty());
  const auto fired = advance_to(wheel, milliseconds(140));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], id);
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST_F(TimerWheelTest, SubTickDelayRoundsUpToOneTick) {
  TimerWheel wheel(t0_, milliseconds(20), 512);
  wheel.schedule(t0_, milliseconds(0));
  wheel.schedule(t0_, milliseconds(1));
  // Nothing fires at t0; both fire by one tick in.
  EXPECT_TRUE(advance_to(wheel, milliseconds(0)).empty());
  EXPECT_EQ(advance_to(wheel, milliseconds(40)).size(), 2u);
}

TEST_F(TimerWheelTest, CancelledTimersNeverFire) {
  TimerWheel wheel(t0_, milliseconds(20), 512);
  const auto keep = wheel.schedule(t0_, milliseconds(60));
  const auto drop = wheel.schedule(t0_, milliseconds(60));
  wheel.cancel(drop);
  EXPECT_EQ(wheel.armed(), 1u);
  const auto fired = advance_to(wheel, milliseconds(200));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], keep);
  wheel.cancel(keep);  // cancelling a fired id is a no-op
  wheel.cancel(12345);  // as is cancelling an unknown one
}

TEST_F(TimerWheelTest, DelaysBeyondOneRevolutionSurvive) {
  // 8 slots x 20ms = 160ms revolution; 500ms rides the wheel 3 times.
  TimerWheel wheel(t0_, milliseconds(20), 8);
  const auto id = wheel.schedule(t0_, milliseconds(500));
  EXPECT_TRUE(advance_to(wheel, milliseconds(160)).empty());
  EXPECT_TRUE(advance_to(wheel, milliseconds(320)).empty());
  EXPECT_TRUE(advance_to(wheel, milliseconds(480)).empty());
  const auto fired = advance_to(wheel, milliseconds(540));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], id);
}

TEST_F(TimerWheelTest, NextWakeupIsEmptyOnlyWhenIdle) {
  TimerWheel wheel(t0_, milliseconds(20), 512);
  EXPECT_FALSE(wheel.next_wakeup(t0_).has_value());
  wheel.schedule(t0_, milliseconds(100));
  const auto wake = wheel.next_wakeup(t0_);
  ASSERT_TRUE(wake.has_value());
  // Conservative: never later than the scheduled expiry (+1 tick of slack),
  // never negative.
  EXPECT_GE(wake->count(), 0);
  EXPECT_LE(wake->count(), 120);
  advance_to(wheel, milliseconds(140));
  EXPECT_FALSE(wheel.next_wakeup(t0_ + milliseconds(140)).has_value());
}

TEST_F(TimerWheelTest, OverdueWakeupIsZeroNotAHugeWait) {
  TimerWheel wheel(t0_, milliseconds(20), 512);
  wheel.schedule(t0_, milliseconds(0));
  // The loop thread can fall behind the wheel between advance() and the
  // next epoll_wait (descheduled, slow callbacks). An overdue slot must ask
  // for an immediate wakeup; a wrapped-around "wait" would park the loop and
  // lose the timer.
  const auto wake = wheel.next_wakeup(t0_ + milliseconds(500));
  ASSERT_TRUE(wake.has_value());
  EXPECT_EQ(wake->count(), 0);
}

TEST_F(TimerWheelTest, ArmingAgainstAStaleCursorNeverFiresEarly) {
  TimerWheel wheel(t0_, milliseconds(20), 512);
  // Real time runs a full second ahead of the cursor before anything is
  // armed — exactly what happens in the reactor, which dispatches I/O and
  // posted tasks before advancing its wheel. The timer armed "now" must not
  // be swallowed by the catch-up advance that follows.
  const auto id = wheel.schedule(t0_ + milliseconds(1000), milliseconds(250));
  EXPECT_TRUE(advance_to(wheel, milliseconds(1000)).empty());
  EXPECT_TRUE(advance_to(wheel, milliseconds(1240)).empty());
  const auto fired = advance_to(wheel, milliseconds(1280));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], id);
}

TEST_F(TimerWheelTest, ManyTimersFireInAmortizedSlotOrder) {
  TimerWheel wheel(t0_, milliseconds(20), 64);
  std::vector<TimerWheel::TimerId> ids;
  for (int i = 1; i <= 200; ++i) {
    ids.push_back(wheel.schedule(t0_, milliseconds(20 * (i % 40) + 20)));
  }
  std::vector<TimerWheel::TimerId> fired;
  for (int step = 1; step <= 50; ++step) {
    const auto now = advance_to(wheel, milliseconds(step * 20));
    fired.insert(fired.end(), now.begin(), now.end());
  }
  std::sort(fired.begin(), fired.end());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(fired, ids);
  EXPECT_EQ(wheel.armed(), 0u);
}

}  // namespace
}  // namespace ncpm::net
