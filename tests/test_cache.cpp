#include "memsys/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <tuple>
#include <vector>

namespace svmsim::memsys {
namespace {

CacheParams small_dm{1024, 1, 64, 1};   // 16 sets, direct mapped
CacheParams small_2w{1024, 2, 64, 8};   // 8 sets, 2-way

TEST(Cache, MissThenHit) {
  Cache c(small_dm);
  EXPECT_FALSE(c.lookup(0));
  c.fill(0, false);
  EXPECT_TRUE(c.lookup(0));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, DirectMappedConflict) {
  Cache c(small_dm);
  c.fill(0, false);
  // 16 sets x 64B lines: address 1024 maps to the same set as 0.
  auto victim = c.fill(1024, false);
  EXPECT_TRUE(victim.evicted);
  EXPECT_EQ(victim.line_addr, 0u);
  EXPECT_FALSE(c.contains(0));
  EXPECT_TRUE(c.contains(1024));
}

TEST(Cache, TwoWayHoldsConflictPair) {
  Cache c(small_2w);
  c.fill(0, false);
  auto victim = c.fill(512, false);  // 8 sets: same set as 0
  EXPECT_FALSE(victim.evicted);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(512));
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(small_2w);
  c.fill(0, false);
  c.fill(512, false);
  EXPECT_TRUE(c.lookup(0));  // touch 0: now 512 is LRU
  auto victim = c.fill(1024, false);
  EXPECT_TRUE(victim.evicted);
  EXPECT_EQ(victim.line_addr, 512u);
  EXPECT_TRUE(c.contains(0));
}

TEST(Cache, DirtyEvictionReported) {
  Cache c(small_dm);
  c.fill(0, /*dirty=*/true);
  auto victim = c.fill(1024, false);
  EXPECT_TRUE(victim.evicted);
  EXPECT_TRUE(victim.dirty);
}

TEST(Cache, LookupCanMarkDirty) {
  Cache c(small_dm);
  c.fill(0, false);
  c.lookup(0, /*mark_dirty=*/true);
  auto victim = c.fill(1024, false);
  EXPECT_TRUE(victim.dirty);
}

TEST(Cache, InvalidateRangeDropsOnlyCoveredLines) {
  Cache c(small_2w);
  c.fill(0, true);
  c.fill(64, false);
  c.fill(256, false);
  c.invalidate_range(0, 128);
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.contains(64));
  EXPECT_TRUE(c.contains(256));
}

TEST(Cache, InvalidatedDirtyLineDoesNotWriteBack) {
  Cache c(small_dm);
  c.fill(0, true);
  c.invalidate_range(0, 64);
  auto victim = c.fill(1024, false);
  EXPECT_FALSE(victim.evicted);
}

TEST(Cache, InvalidateRangeHandlesUnalignedAndSubLineRanges) {
  Cache c(small_2w);
  c.fill(0, false);
  c.fill(64, false);
  c.fill(128, false);
  c.invalidate_range(1, 63);  // sub-line, covers no line start
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(64));
  c.invalidate_range(10, 64);  // unaligned, covers line 64 only
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(64));
  EXPECT_TRUE(c.contains(128));
  c.invalidate_range(1 << 20, 4096);  // past every filled address
  EXPECT_TRUE(c.contains(128));
}

// Randomized differential test of the resident-line bitmap: a brute-force
// shadow model (resident address -> {LRU stamp, dirty}, sets recomputed by
// scanning) must agree with the cache after every fill, lookup and
// invalidation, on the contents, the victims fill reports and the hit/miss
// counts.
class Shadow {
 public:
  explicit Shadow(const CacheParams& p)
      : p_(p), sets_(p.size_bytes / (p.line_bytes * p.associativity)) {}

  bool lookup(std::uint64_t a, bool mark_dirty) {
    auto it = lines_.find(a);
    if (it == lines_.end()) {
      ++misses_;
      return false;
    }
    it->second.lru = ++tick_;
    if (mark_dirty) it->second.dirty = true;
    ++hits_;
    return true;
  }

  Cache::Victim fill(std::uint64_t a, bool dirty) {
    Cache::Victim out;
    const std::uint64_t set = (a / p_.line_bytes) % sets_;
    std::vector<std::map<std::uint64_t, Line>::iterator> same_set;
    for (auto it = lines_.begin(); it != lines_.end(); ++it) {
      if ((it->first / p_.line_bytes) % sets_ == set) same_set.push_back(it);
    }
    if (same_set.size() == p_.associativity) {
      auto lru = *std::min_element(
          same_set.begin(), same_set.end(),
          [](auto x, auto y) { return x->second.lru < y->second.lru; });
      out.evicted = true;
      out.dirty = lru->second.dirty;
      out.line_addr = lru->first;
      lines_.erase(lru);
    }
    lines_[a] = Line{++tick_, dirty};
    return out;
  }

  /// Returns the number of resident lines dropped.
  std::size_t invalidate_range(std::uint64_t start, std::uint64_t len) {
    return std::erase_if(lines_, [&](const auto& kv) {
      return kv.first >= start && kv.first < start + len;
    });
  }

  [[nodiscard]] bool contains(std::uint64_t a) const {
    return lines_.count(a) != 0;
  }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct Line {
    std::uint64_t lru;
    bool dirty;
  };
  CacheParams p_;
  std::uint64_t sets_;
  std::map<std::uint64_t, Line> lines_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

class CacheInvalidateDifferential
    : public ::testing::TestWithParam<CacheParams> {};

TEST_P(CacheInvalidateDifferential, MatchesBruteForceShadow) {
  const CacheParams p = GetParam();
  constexpr std::uint64_t kPage = 4096;
  const std::uint64_t lb = p.line_bytes;
  // Twice the capacity, or `associativity` times it for wider sets, so
  // sets still conflict and fills evict while invalidations keep emptying
  // ways.
  const std::uint64_t region_lines =
      std::max<std::uint64_t>(2, p.associativity) * p.size_bytes / lb;
  std::mt19937_64 rng(0x5eed0000 + p.associativity);
  auto below = [&](std::uint64_t n) { return rng() % n; };
  std::uint64_t evictions = 0;
  std::uint64_t dropped = 0;

  for (int trial = 0; trial < 4; ++trial) {
    Cache c(p);
    Shadow ref(p);
    // The last two trials fill only a quarter of the region, so more of
    // their invalidations lie past the highest filled address.
    const std::uint64_t hot_lines = trial < 2 ? region_lines : region_lines / 4;
    for (int step = 0; step < 3000; ++step) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " step "
                                        << step);
      const std::uint64_t op = below(20);
      if (op < 16) {
        // A load or store probe; a miss fills, as ProcMemory does.
        const std::uint64_t a = below(hot_lines) * lb;
        const bool dirty = below(2) == 0;
        const bool hit = c.lookup(a, dirty);
        ASSERT_EQ(hit, ref.lookup(a, dirty));
        if (!hit) {
          const Cache::Victim got = c.fill(a, dirty);
          const Cache::Victim want = ref.fill(a, dirty);
          ASSERT_EQ(got.evicted, want.evicted);
          if (want.evicted) {
            ++evictions;
            ASSERT_EQ(got.dirty, want.dirty);
            ASSERT_EQ(got.line_addr, want.line_addr);
          }
        }
      } else {
        std::uint64_t start = 0;
        std::uint64_t len = 0;
        const std::uint64_t span = region_lines * lb;
        switch (op) {
          case 16:  // one whole page (the HLRC fetch/invalidate case)
            start = below(std::max<std::uint64_t>(1, span / kPage)) * kPage;
            len = kPage;
            break;
          case 17:  // unaligned at both ends, up to two pages (AURC updates)
            start = below(span);
            len = 1 + below(2 * kPage);
            break;
          case 18:  // inside one line
            start = below(span);
            len = 1 + below(lb - 1);
            break;
          default:  // past the highest filled address, sometimes far past
            start = (hot_lines + below(region_lines)) * lb + below(lb);
            len = 1 + below(below(2) == 0 ? kPage : 64 * kPage);
            break;
        }
        c.invalidate_range(start, len);
        dropped += ref.invalidate_range(start, len);
      }
      ASSERT_EQ(c.hits(), ref.hits());
      ASSERT_EQ(c.misses(), ref.misses());
      for (std::uint64_t ln = 0; ln < hot_lines; ++ln) {
        ASSERT_EQ(c.contains(ln * lb), ref.contains(ln * lb)) << "line " << ln;
      }
    }
  }
  // The walk must actually exercise both paths it checks.
  EXPECT_GT(evictions, 100u);
  EXPECT_GT(dropped, 100u);
}

// The paper's L1 (16 KB direct-mapped, 64 B lines); its L2 shape (2-way,
// 64 B lines) at 32 KB, small enough for the walk to fill every set; the
// small geometries above, where nearly every fill conflicts; and 4- and
// 8-way sets, large and small, where a hit rotates and an invalidation
// compacts a way from the middle of the recency order.
INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheInvalidateDifferential,
    ::testing::Values(CacheParams{16 * 1024, 1, 64, 1},
                      CacheParams{32 * 1024, 2, 64, 8}, small_dm, small_2w,
                      CacheParams{32 * 1024, 4, 64, 8},
                      CacheParams{32 * 1024, 8, 64, 8},
                      CacheParams{1024, 4, 64, 1},
                      CacheParams{2048, 8, 32, 1}));

// Property-style sweep: for any config, filling N distinct lines that map to
// distinct sets keeps all of them resident.
class CacheConfigTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CacheConfigTest, DistinctSetsDoNotConflict) {
  auto [size_kb, assoc, line] = GetParam();
  CacheParams p{static_cast<std::uint32_t>(size_kb * 1024),
                static_cast<std::uint32_t>(assoc),
                static_cast<std::uint32_t>(line), 1};
  Cache c(p);
  const std::uint32_t sets = c.sets();
  for (std::uint32_t s = 0; s < sets; ++s) {
    c.fill(static_cast<std::uint64_t>(s) * line, false);
  }
  for (std::uint32_t s = 0; s < sets; ++s) {
    EXPECT_TRUE(c.contains(static_cast<std::uint64_t>(s) * line));
  }
}

TEST_P(CacheConfigTest, AssociativityWaysFitInOneSet) {
  auto [size_kb, assoc, line] = GetParam();
  CacheParams p{static_cast<std::uint32_t>(size_kb * 1024),
                static_cast<std::uint32_t>(assoc),
                static_cast<std::uint32_t>(line), 1};
  Cache c(p);
  const std::uint64_t set_stride =
      static_cast<std::uint64_t>(c.sets()) * line;
  for (int w = 0; w < assoc; ++w) {
    c.fill(static_cast<std::uint64_t>(w) * set_stride, false);
  }
  for (int w = 0; w < assoc; ++w) {
    EXPECT_TRUE(c.contains(static_cast<std::uint64_t>(w) * set_stride));
  }
  // One more way evicts exactly one line.
  auto victim = c.fill(static_cast<std::uint64_t>(assoc) * set_stride, false);
  EXPECT_TRUE(victim.evicted);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CacheConfigTest,
    ::testing::Values(std::make_tuple(1, 1, 32), std::make_tuple(1, 2, 32),
                      std::make_tuple(4, 2, 64), std::make_tuple(16, 1, 64),
                      std::make_tuple(16, 4, 64), std::make_tuple(512, 2, 64),
                      std::make_tuple(64, 8, 128)));

}  // namespace
}  // namespace svmsim::memsys
