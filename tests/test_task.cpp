#include "engine/task.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "engine/simulator.hpp"

namespace svmsim::engine {
namespace {

Task<int> value_task(int v) { co_return v; }

Task<int> add_tasks(int a, int b) {
  const int x = co_await value_task(a);
  const int y = co_await value_task(b);
  co_return x + y;
}

TEST(Task, ReturnsValueThroughChain) {
  int result = 0;
  spawn([](int& out) -> Task<void> {
    out = co_await add_tasks(2, 3);
  }(result));
  EXPECT_EQ(result, 5);  // no suspensions: runs to completion inline
}

TEST(Task, VoidTaskCompletes) {
  bool ran = false;
  spawn([](bool& flag) -> Task<void> {
    flag = true;
    co_return;
  }(ran));
  EXPECT_TRUE(ran);
}

TEST(Task, DeepChainUsesSymmetricTransfer) {
  // A deep co_await chain must not overflow the stack.
  struct Rec {
    static Task<int> down(int depth) {
      if (depth == 0) co_return 0;
      co_return 1 + co_await down(depth - 1);
    }
  };
  int result = 0;
  spawn([](int& out) -> Task<void> {
    out = co_await Rec::down(100000);
  }(result));
  EXPECT_EQ(result, 100000);
}

TEST(Task, ExceptionsPropagateToAwaiter) {
  struct Thrower {
    static Task<int> boom() {
      throw std::runtime_error("boom");
      co_return 0;  // unreachable
    }
  };
  std::string caught;
  spawn([](std::string& out) -> Task<void> {
    try {
      (void)co_await Thrower::boom();
    } catch (const std::runtime_error& e) {
      out = e.what();
    }
  }(caught));
  EXPECT_EQ(caught, "boom");
}

TEST(Task, SuspendsAcrossSimulatedDelays) {
  Simulator sim;
  std::vector<int> order;
  spawn([](Simulator& s, std::vector<int>& o) -> Task<void> {
    o.push_back(1);
    co_await s.delay(10);
    o.push_back(3);
  }(sim, order));
  order.push_back(2);  // spawn returned at the first suspension
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Task, ManyConcurrentTasksInterleaveByTime) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    spawn([](Simulator& s, std::vector<int>& o, int id) -> Task<void> {
      co_await s.delay(static_cast<Cycles>(10 * (5 - id)));
      o.push_back(id);
    }(sim, order, i));
  }
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(Task, UnawaitedTaskDoesNotRun) {
  bool ran = false;
  {
    auto t = [](bool& flag) -> Task<void> {
      flag = true;
      co_return;
    }(ran);
    EXPECT_TRUE(t.valid());
    // destroyed without being awaited
  }
  EXPECT_FALSE(ran);
}

TEST(Task, MoveTransfersOwnership) {
  auto t = value_task(7);
  Task<int> u = std::move(t);
  EXPECT_FALSE(t.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(u.valid());
  int out = 0;
  spawn([](Task<int> task, int& o) -> Task<void> {
    o = co_await std::move(task);
  }(std::move(u), out));
  EXPECT_EQ(out, 7);
}

TEST(FrameRegistry, ScopedRegistryNestsAndRestores) {
  FrameRegistry a, b;
  EXPECT_EQ(FrameRegistry::current_slot(), nullptr);
  {
    ScopedFrameRegistry sa(a);
    EXPECT_EQ(&FrameRegistry::current(), &a);
    {
      ScopedFrameRegistry sb(b);
      EXPECT_EQ(&FrameRegistry::current(), &b);
    }
    EXPECT_EQ(&FrameRegistry::current(), &a);
  }
  EXPECT_EQ(FrameRegistry::current_slot(), nullptr);
}

}  // namespace
}  // namespace svmsim::engine
