#include "memsys/write_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <vector>

namespace svmsim::memsys {
namespace {

TEST(WriteBuffer, NoStallWhileBelowCapacity) {
  WriteBuffer wb(8, 4, 10);
  std::vector<std::uint64_t> retired;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(wb.push(static_cast<std::uint64_t>(i) * 64, 0, retired), 0u);
  }
}

TEST(WriteBuffer, CoalescesSameLine) {
  WriteBuffer wb(4, 4, 10);
  std::vector<std::uint64_t> retired;
  wb.push(0, 0, retired);
  wb.push(0, 1, retired);
  wb.push(0, 2, retired);
  EXPECT_EQ(wb.occupancy(), 1u);
  EXPECT_EQ(wb.coalesced(), 2u);
}

TEST(WriteBuffer, RetiresOncePolicyThresholdReached) {
  WriteBuffer wb(8, 4, 10);
  std::vector<std::uint64_t> retired;
  for (int i = 0; i < 4; ++i) {
    wb.push(static_cast<std::uint64_t>(i) * 64, 0, retired);
  }
  // At time 0 we have 4 entries: draining starts; after 10 cycles the first
  // entry retires.
  wb.advance(9, retired);
  EXPECT_TRUE(retired.empty());
  wb.advance(10, retired);
  EXPECT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0], 0u);
  EXPECT_EQ(wb.occupancy(), 3u);
}

TEST(WriteBuffer, DrainStopsBelowThreshold) {
  WriteBuffer wb(8, 4, 10);
  std::vector<std::uint64_t> retired;
  for (int i = 0; i < 4; ++i) {
    wb.push(static_cast<std::uint64_t>(i) * 64, 0, retired);
  }
  wb.advance(1000, retired);
  // Retire down to threshold-1 entries, then stop.
  EXPECT_EQ(retired.size(), 1u);
  EXPECT_EQ(wb.occupancy(), 3u);
}

TEST(WriteBuffer, FullBufferStallsUntilRetirement) {
  WriteBuffer wb(4, 4, 10);
  std::vector<std::uint64_t> retired;
  for (int i = 0; i < 4; ++i) {
    wb.push(static_cast<std::uint64_t>(i) * 64, 0, retired);
  }
  // Buffer full at t=5: the in-flight retirement (started at t=0) completes
  // at t=10, so we stall 5 cycles.
  const Cycles stall = wb.push(1000, 5, retired);
  EXPECT_EQ(stall, 5u);
  EXPECT_EQ(wb.full_stalls(), 1u);
  EXPECT_EQ(wb.occupancy(), 4u);
}

TEST(WriteBuffer, NoStallWhenRetirementAlreadyDone) {
  WriteBuffer wb(4, 2, 10);
  std::vector<std::uint64_t> retired;
  for (int i = 0; i < 4; ++i) {
    wb.push(static_cast<std::uint64_t>(i) * 64, 0, retired);
  }
  // By t=100 the drain (threshold 2) got occupancy down to 1.
  const Cycles stall = wb.push(1000, 100, retired);
  EXPECT_EQ(stall, 0u);
}

TEST(WriteBuffer, ContainsReportsBufferedLines) {
  WriteBuffer wb(8, 4, 10);
  std::vector<std::uint64_t> retired;
  wb.push(128, 0, retired);
  EXPECT_TRUE(wb.contains(128));
  EXPECT_FALSE(wb.contains(64));
}

TEST(WriteBuffer, RetirementIsFifo) {
  WriteBuffer wb(8, 2, 10);
  std::vector<std::uint64_t> retired;
  wb.push(64, 0, retired);
  wb.push(128, 0, retired);
  wb.push(192, 0, retired);
  wb.advance(100, retired);
  ASSERT_EQ(retired.size(), 2u);
  EXPECT_EQ(retired[0], 64u);
  EXPECT_EQ(retired[1], 128u);
}

// Reference model: the retire-at-K policy over a std::deque, as the write
// buffer was before its pending lines moved into a fixed ring.
class DequeWriteBuffer {
 public:
  DequeWriteBuffer(std::uint32_t entries, std::uint32_t retire_at,
                   Cycles retire_cost)
      : entries_(entries), retire_at_(retire_at), retire_cost_(retire_cost) {}

  void advance(Cycles now, std::vector<std::uint64_t>& retired) {
    bool chained = false;
    while (!pending_.empty()) {
      if (draining_) {
        if (drain_done_ > now) return;
        retired.push_back(pending_.front());
        pending_.pop_front();
        draining_ = false;
        chained = true;
        continue;
      }
      if (pending_.size() < retire_at_) return;
      draining_ = true;
      drain_done_ = (chained ? drain_done_ : now) + retire_cost_;
      chained = false;
    }
  }

  Cycles push(std::uint64_t line, Cycles now,
              std::vector<std::uint64_t>& retired) {
    advance(now, retired);
    if (contains(line)) {
      ++coalesced_;
      return 0;
    }
    Cycles stall = 0;
    if (pending_.size() >= entries_) {
      if (!draining_) {
        draining_ = true;
        drain_done_ = std::max(drain_done_, now) + retire_cost_;
      }
      stall = drain_done_ > now ? drain_done_ - now : 0;
      retired.push_back(pending_.front());
      pending_.pop_front();
      draining_ = false;
      ++full_stalls_;
      advance(now + stall, retired);
    }
    pending_.push_back(line);
    advance(now + stall, retired);
    return stall;
  }

  [[nodiscard]] bool contains(std::uint64_t line) const {
    return std::find(pending_.begin(), pending_.end(), line) !=
           pending_.end();
  }
  [[nodiscard]] std::size_t occupancy() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t full_stalls() const { return full_stalls_; }
  [[nodiscard]] std::uint64_t coalesced() const { return coalesced_; }

 private:
  std::uint32_t entries_;
  std::uint32_t retire_at_;
  Cycles retire_cost_;
  std::deque<std::uint64_t> pending_;
  Cycles drain_done_ = 0;
  bool draining_ = false;
  std::uint64_t full_stalls_ = 0;
  std::uint64_t coalesced_ = 0;
};

// Randomized differential test of the ring against the deque model: every
// push, advance and contains must agree on stalls, retired lines (in
// order), occupancy and the counters. Each geometry runs long enough for
// the ring's head to wrap many times, and stores arrive faster than the
// buffer drains, so full-buffer stalls occur.
TEST(WriteBuffer, RingMatchesDequeModel) {
  struct Geometry {
    std::uint32_t entries;
    std::uint32_t retire_at;
    Cycles retire_cost;
  };
  const Geometry geometries[] = {{1, 1, 3},  {2, 1, 0},  {3, 2, 7},
                                 {4, 4, 10}, {5, 3, 1},  {8, 4, 8},
                                 {8, 1, 20}, {8, 8, 2},  {16, 6, 5}};
  std::uint64_t full_stalls = 0;
  std::uint64_t coalesced = 0;
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(::testing::Message() << "entries " << g.entries
                                      << " retire_at " << g.retire_at
                                      << " cost " << g.retire_cost);
    std::mt19937_64 rng(0x3b0ff3e5 + g.entries * 31 + g.retire_at);
    auto below = [&](std::uint64_t n) { return rng() % n; };
    WriteBuffer wb(g.entries, g.retire_at, g.retire_cost);
    DequeWriteBuffer ref(g.entries, g.retire_at, g.retire_cost);
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> want;
    // A line pool a little larger than the buffer, so stores both coalesce
    // and miss.
    const std::uint64_t lines = 2 * g.entries + 2;
    Cycles now = 0;
    std::uint64_t retired = 0;
    for (int step = 0; step < 20000; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      // Mostly back-to-back stores, sometimes a pause long enough to drain.
      now += below(8) == 0 ? below(4 * g.retire_cost + 8) : below(3);
      const std::uint64_t line = below(lines) * 64;
      got.clear();
      want.clear();
      switch (below(4)) {
        case 0:
          wb.advance(now, got);
          ref.advance(now, want);
          break;
        case 1:
          ASSERT_EQ(wb.contains(line), ref.contains(line));
          break;
        default: {
          const Cycles stall = wb.push(line, now, got);
          ASSERT_EQ(stall, ref.push(line, now, want));
          now += stall;
          break;
        }
      }
      ASSERT_EQ(got, want);
      retired += got.size();
      ASSERT_EQ(wb.occupancy(), ref.occupancy());
      ASSERT_EQ(wb.full_stalls(), ref.full_stalls());
      ASSERT_EQ(wb.coalesced(), ref.coalesced());
    }
    // Every slot of the ring has been reused many times over.
    EXPECT_GT(retired, 20u * g.entries);
    full_stalls += wb.full_stalls();
    coalesced += wb.coalesced();
  }
  EXPECT_GT(full_stalls, 1000u);
  EXPECT_GT(coalesced, 1000u);
}

}  // namespace
}  // namespace svmsim::memsys
