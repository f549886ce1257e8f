#include "engine/event_queue.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace svmsim::engine {
namespace {

TEST(EventQueue, StartsAtTimeZeroAndEmpty) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SimultaneousEventsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  q.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelativeToNow) {
  EventQueue q;
  Cycles fired_at = 0;
  q.schedule_at(100, [&] {
    q.schedule_in(50, [&] { fired_at = q.now(); });
  });
  q.run_until_idle();
  EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule_in(10, chain);
  };
  q.schedule_in(10, chain);
  q.run_until_idle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(100, [&] { ++fired; });
  EXPECT_FALSE(q.run_until(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.run_until(200));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilInclusiveOfDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(50, [&] { ++fired; });
  EXPECT_TRUE(q.run_until(50));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CountsFiredEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(static_cast<Cycles>(i), [] {});
  q.run_until_idle();
  EXPECT_EQ(q.events_fired(), 7u);
}

TEST(EventQueue, ZeroDelayEventRunsAfterCurrentEvent) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] {
    order.push_back(1);
    q.schedule_in(0, [&] { order.push_back(2); });
    order.push_back(3);
  });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(EventQueue, ScheduleNowMatchesScheduleInZero) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] {
    q.schedule_in(0, [&] { order.push_back(1); });
    q.schedule_now([&] { order.push_back(2); });
    q.schedule_at(10, [&] { order.push_back(3); });
  });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 10u);
}

// Regression: while step() is mid-fire at tick T, a mix of already-queued
// time-T events and same-tick inserts made *during* the in-flight event must
// still fire in global insertion order — the same-tick fast lane may not
// jump ahead of previously queued work, and pre-queued events may not
// starve the new inserts.
TEST(EventQueue, SameTickInsertionOrderDuringInFlightStep) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(7, [&] {
    order.push_back(0);
    q.schedule_in(0, [&] { order.push_back(3); });
    q.schedule_at(7, [&] {
      order.push_back(4);
      q.schedule_now([&] { order.push_back(6); });
    });
  });
  q.schedule_at(7, [&] { order.push_back(1); });
  q.schedule_at(7, [&] {
    order.push_back(2);
    q.schedule_now([&] { order.push_back(5); });
  });
  q.schedule_at(9, [&] { order.push_back(7); });
  while (q.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(q.events_fired(), 8u);
}

// The wire-band ordering cases run on both this queue and the reference
// model in test_scheduler_differential.cpp.

TEST(WireBand, ClearDropsWireEvents) {
  EventQueue q;
  q.schedule_wire(5, 1, [] { FAIL() << "cleared event fired"; });
  q.schedule_at(5, [] { FAIL() << "cleared event fired"; });
  q.clear();
  EXPECT_TRUE(q.empty());
  q.run_until_idle();
}

#ifndef NDEBUG
TEST(EventQueueDeathTest, SchedulingInThePastAsserts) {
  EXPECT_DEATH(
      {
        EventQueue q;
        q.schedule_at(10, [&] { q.schedule_at(5, [] {}); });
        q.run_until_idle();
      },
      "cannot schedule an event in the past");
}
#endif

}  // namespace
}  // namespace svmsim::engine
