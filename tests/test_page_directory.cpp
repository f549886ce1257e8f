#include "svm/page_directory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

namespace svmsim::svm {
namespace {

TEST(PageDirectory, CollectsOnlyUncoveredIntervals) {
  PageDirectory dir(2);
  dir.record_interval(0, 1, {10, 11});
  dir.record_interval(0, 2, {12});
  dir.record_interval(1, 1, {20});

  VClock have(2);  // has seen nothing
  VClock target(2);
  target.set(0, 2);
  target.set(1, 1);

  std::multiset<PageId> pages;
  const auto n = dir.collect_notices(
      have, target, [&](PageId p, NodeId) { pages.insert(p); });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(pages, (std::multiset<PageId>{10, 11, 12, 20}));
}

TEST(PageDirectory, SkipsCoveredIntervals) {
  PageDirectory dir(2);
  dir.record_interval(0, 1, {10});
  dir.record_interval(0, 2, {11});
  VClock have(2);
  have.set(0, 1);
  VClock target(2);
  target.set(0, 2);
  std::vector<PageId> pages;
  dir.collect_notices(have, target, [&](PageId p, NodeId) {
    pages.push_back(p);
  });
  EXPECT_EQ(pages, (std::vector<PageId>{11}));
}

TEST(PageDirectory, ReportsWriterNode) {
  PageDirectory dir(3);
  dir.record_interval(2, 1, {5});
  VClock have(3);
  VClock target(3);
  target.set(2, 1);
  NodeId writer = -1;
  dir.collect_notices(have, target, [&](PageId, NodeId w) { writer = w; });
  EXPECT_EQ(writer, 2);
}

TEST(PageDirectory, CountMatchesCollect) {
  PageDirectory dir(2);
  dir.record_interval(0, 1, {1, 2, 3});
  dir.record_interval(1, 1, {4});
  dir.record_interval(1, 2, {5, 6});
  VClock have(2);
  have.set(1, 1);
  VClock target(2);
  target.set(0, 1);
  target.set(1, 2);
  std::size_t collected = 0;
  dir.collect_notices(have, target, [&](PageId, NodeId) { ++collected; });
  EXPECT_EQ(dir.count_notices(have, target), collected);
  EXPECT_EQ(collected, 5u);
}

TEST(PageDirectory, IntervalsOf) {
  PageDirectory dir(2);
  EXPECT_EQ(dir.intervals_of(0), 0u);
  dir.record_interval(0, 1, {});
  dir.record_interval(0, 2, {});
  EXPECT_EQ(dir.intervals_of(0), 2u);
  EXPECT_EQ(dir.intervals_of(1), 0u);
}

TEST(PageDirectory, EmptyIntervalContributesNothing) {
  PageDirectory dir(1);
  dir.record_interval(0, 1, {});
  VClock have(1);
  VClock target(1);
  target.set(0, 1);
  EXPECT_EQ(dir.count_notices(have, target), 0u);
}

// Large-machine growth: appends grow the flat per-node logs through many
// reallocations, and scans interleaved with them stay exact. Each scan only
// targets intervals already recorded, as a clock carried by a message names
// only completed intervals.
TEST(PageDirectory, GrowthAt256NodesKeepsScansExact) {
  constexpr int kNodes = 256;
  constexpr std::uint32_t kIntervals = 64;
  PageDirectory dir(kNodes);
  for (std::uint32_t idx = 1; idx <= kIntervals; ++idx) {
    for (int n = 0; n < kNodes; ++n) {
      const PageId pages[3] = {static_cast<PageId>(n), 1000u + idx,
                               2000u + static_cast<PageId>(n) + idx};
      dir.record_interval(n, idx, pages);
    }
    VClock have(kNodes), target(kNodes);
    for (int n = 0; n < kNodes; ++n) {
      target.set(n, idx);
      have.set(n, idx / 2);
    }
    std::uint64_t collected = 0;
    dir.collect_notices(have, target, [&](PageId, NodeId) { ++collected; });
    ASSERT_EQ(collected, dir.count_notices(have, target));
    ASSERT_EQ(collected,
              static_cast<std::uint64_t>(kNodes) * (idx - idx / 2) * 3);
  }

  // Final state: every interval of every node is visible and exact.
  VClock none(kNodes), all(kNodes);
  for (int n = 0; n < kNodes; ++n) all.set(n, kIntervals);
  EXPECT_EQ(dir.count_notices(none, all),
            static_cast<std::uint64_t>(kNodes) * kIntervals * 3);
  for (int n = 0; n < kNodes; ++n) {
    ASSERT_EQ(dir.intervals_of(n), kIntervals);
  }
}

}  // namespace
}  // namespace svmsim::svm
