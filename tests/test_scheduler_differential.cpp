// Differential tests: engine::EventQueue (detail::TieredScheduler) against
// a test-local reference queue.
//
// ReferenceQueue is the ordering contract of docs/engine.md written as
// plainly as possible: one sorted map keyed by (when, band, seq) for
// ordinary events and (when, band, defer, key) for wire-band events, with
// the wire band sorting first at equal time. The tests drive both queues
// with identical seeded-random and bursty schedule streams and with
// directed streams aimed at the tiered scheduler's internals (wheel-slot
// wraparound, cascades at every level boundary, overflow past the wheel
// horizon, the run_until() pause/insert path, clear() dropping events from
// every tier), and assert they fire events in exactly the same order — the
// total order that makes simulations bit-reproducible.
#include "engine/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

namespace svmsim::engine {
namespace {

using detail::TieredScheduler;

/// The reference model: every pending event in one ordered map. O(log n)
/// per operation and no tiers, so its fire order is the contract itself.
class ReferenceQueue {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] Cycles now() const noexcept { return now_; }

  void schedule_at(Cycles when, Action action) {
    EXPECT_GE(when, now_) << "cannot schedule an event in the past";
    events_.emplace(Key{when, kNormalBand, next_seq_++, 0}, std::move(action));
  }
  void schedule_in(Cycles delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }
  void schedule_now(Action action) { schedule_at(now_, std::move(action)); }

  /// Wire keys are unique per pending (when, key) pair, as the network's
  /// per-link sequence numbers guarantee in the simulator.
  void schedule_wire(Cycles when, std::uint64_t key, Action action) {
    EXPECT_GT(when, now_) << "wire events must be strictly in the future";
    const bool fresh =
        events_.emplace(Key{when, kWireBand, 0, key}, std::move(action))
            .second;
    EXPECT_TRUE(fresh) << "duplicate wire key " << key << " at " << when;
  }

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return events_.size(); }
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }
  [[nodiscard]] Cycles next_time() const noexcept {
    return events_.empty() ? kNever : std::get<0>(events_.begin()->first);
  }

  bool step() {
    if (events_.empty()) return false;
    auto it = events_.begin();
    now_ = std::get<0>(it->first);
    Action action = std::move(it->second);
    events_.erase(it);
    ++fired_;
    action();
    return true;
  }
  void run_until_idle() {
    while (step()) {
    }
  }
  bool run_until(Cycles deadline) {
    while (!events_.empty()) {
      if (next_time() > deadline) return false;
      step();
    }
    return true;
  }
  void clear() noexcept { events_.clear(); }

 private:
  static constexpr int kWireBand = 0;  // fires first at equal time
  static constexpr int kNormalBand = 1;
  /// (when, band, seq, key): seq orders the normal band; the wire band
  /// leaves seq at 0 (its defer rank, which only an arbiter raises) and
  /// orders by key.
  using Key = std::tuple<Cycles, int, std::uint64_t, std::uint64_t>;

  std::map<Key, Action> events_;
  Cycles now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

/// Deterministic LCG (MMIX constants), identical across queues.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() noexcept {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
};

/// A delay spanning every tier: same-tick, all four wheel levels, and
/// beyond-horizon overflow into the fallback heap.
Cycles random_delay(Lcg& rng) {
  switch (rng.next() % 8) {
    case 0:
    case 1:
      return 0;
    case 2:
    case 3:
      return 1 + rng.next() % 255;
    case 4:
      return 256 + rng.next() % 65280;
    case 5:
      return (Cycles{1} << 16) + rng.next() % (Cycles{1} << 20);
    case 6:
      return (Cycles{1} << 24) + rng.next() % (Cycles{1} << 26);
    default:
      return (Cycles{1} << 32) + rng.next() % (Cycles{1} << 33);
  }
}

/// Run the seeded-random schedule program on one queue and return the fire
/// trace: (event id, fire time) in fire order. Every fired event may spawn
/// 0-2 successors, decided by an LCG stream shared across queues. With
/// `wire`, a quarter of the nonzero-delay spawns go to the wire band (keyed
/// by their unique id), interleaving both bands at shared fire times.
template <class Queue>
std::vector<std::pair<std::uint64_t, Cycles>> random_trace(
    std::uint64_t seed, std::size_t initial, std::size_t cap,
    bool wire = false) {
  struct Driver {
    Queue q;
    Lcg rng;
    bool wire = false;
    std::uint64_t next_id = 0;
    std::size_t cap;
    std::vector<std::pair<std::uint64_t, Cycles>> trace;

    void spawn() {
      const std::uint64_t id = next_id++;
      const Cycles d = random_delay(rng);
      const auto fire = [this, id] {
        trace.emplace_back(id, q.now());
        const std::uint64_t kids = rng.next() % 3;
        for (std::uint64_t k = 0; k < kids && next_id < cap; ++k) spawn();
      };
      // Exercise both entry points for zero delays.
      if (d == 0 && rng.next() % 2 == 0) {
        q.schedule_now(fire);
      } else if (wire && d > 0 && rng.next() % 4 == 0) {
        q.schedule_wire(q.now() + d, id, fire);
      } else {
        q.schedule_in(d, fire);
      }
    }
  };

  Driver drv;
  drv.rng.s = seed;
  drv.wire = wire;
  drv.cap = cap;
  for (std::size_t i = 0; i < initial; ++i) drv.spawn();
  drv.q.run_until_idle();
  EXPECT_EQ(drv.q.pending(), 0u);
  return drv.trace;
}

template <class Trace>
void expect_same_trace(const Trace& want, const Trace& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "position " << i;
  }
}

TEST(SchedulerDifferential, RandomStreamsFireIdentically) {
  for (std::uint64_t seed : {0x1ull, 0x5eedull, 0xabcdef01ull}) {
    SCOPED_TRACE(seed);
    expect_same_trace(random_trace<ReferenceQueue>(seed, 64, 4000),
                      random_trace<TieredScheduler>(seed, 64, 4000));
  }
}

TEST(SchedulerDifferential, RandomStreamsWithWireBandFireIdentically) {
  for (std::uint64_t seed : {0x2ull, 0xbeefull}) {
    SCOPED_TRACE(seed);
    expect_same_trace(random_trace<ReferenceQueue>(seed, 64, 4000, true),
                      random_trace<TieredScheduler>(seed, 64, 4000, true));
  }
}

/// Same comparison across the run_until() pause/resume path: fire in
/// deadline-bounded bursts, scheduling a fresh batch at every pause. On the
/// tiered scheduler this drives the behind-the-cursor insert path (the
/// wheel may have swept ahead of now() when the deadline hit mid-tick).
template <class Queue>
std::vector<std::pair<std::uint64_t, Cycles>> bursty_trace(
    std::uint64_t seed) {
  Queue q;
  Lcg rng{seed};
  std::uint64_t next_id = 0;
  std::vector<std::pair<std::uint64_t, Cycles>> trace;

  const auto schedule_batch = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t id = next_id++;
      q.schedule_in(random_delay(rng) % 4096,
                    [&, id] { trace.emplace_back(id, q.now()); });
    }
  };
  schedule_batch(128);
  // The deadline ratchets forward unconditionally (run_until does not
  // advance now() when nothing fires), so the loop always terminates.
  Cycles deadline = 0;
  while (!q.empty()) {
    deadline += 1 + rng.next() % 512;
    if (!q.run_until(deadline) && next_id < 2000) schedule_batch(16);
  }
  return trace;
}

TEST(SchedulerDifferential, RunUntilBurstsFireIdentically) {
  expect_same_trace(bursty_trace<ReferenceQueue>(0xfeedull),
                    bursty_trace<TieredScheduler>(0xfeedull));
}

// ------------------------------------------------------- directed streams
// Each case runs on both queues against a hand-written expectation, so a
// disagreement names which side broke the contract.

template <class Queue>
class Directed : public ::testing::Test {};
using Queues = ::testing::Types<TieredScheduler, ReferenceQueue>;
TYPED_TEST_SUITE(Directed, Queues);

TYPED_TEST(Directed, WheelSlotWraparound) {
  // Times straddling several 256-cycle level-0 windows, inserted in a
  // scrambled order, must come out ascending: the level-0 cursor wraps its
  // 256 slots twice and each wrap cascades the next level-1 slot.
  TypeParam q;
  std::vector<Cycles> times;
  for (Cycles t = 1; t <= 600; t += 7) times.push_back(t);
  std::vector<Cycles> scrambled = times;
  std::reverse(scrambled.begin() + 3, scrambled.end());
  std::vector<Cycles> fired;
  for (Cycles t : scrambled) {
    q.schedule_at(t, [&fired, &q] { fired.push_back(q.now()); });
  }
  q.run_until_idle();
  EXPECT_EQ(fired, times);
}

TYPED_TEST(Directed, CascadeAtLevelBoundaries) {
  // One event on each side of every level boundary (256, 65536, 2^24) plus
  // the wheel horizon (2^32, where events overflow to the fallback heap),
  // and a same-time pair at each boundary to pin down seq order across the
  // cascade. Everything must fire in ascending time, pairs in insertion
  // order.
  const Cycles bounds[] = {Cycles{1} << 8, Cycles{1} << 16, Cycles{1} << 24,
                           Cycles{1} << 32};
  TypeParam q;
  std::vector<std::pair<Cycles, int>> fired;
  int tag = 0;
  std::vector<std::pair<Cycles, int>> expect;
  for (Cycles b : bounds) {
    for (Cycles t : {b - 1, b, b + 1}) {
      q.schedule_at(t, [&fired, &q, tag] { fired.emplace_back(q.now(), tag); });
      expect.emplace_back(t, tag++);
      q.schedule_at(t, [&fired, &q, tag] { fired.emplace_back(q.now(), tag); });
      expect.emplace_back(t, tag++);
    }
  }
  q.run_until_idle();
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(q.events_fired(), expect.size());
}

TYPED_TEST(Directed, ClearDropsEveryTier) {
  auto canary = std::make_shared<int>(42);
  TypeParam q;
  // Park the queue at a nonzero time so the lane genuinely holds a tick.
  q.schedule_at(100, [] {});
  q.run_until_idle();
  ASSERT_EQ(q.now(), 100u);

  const auto hold = [canary] { (void)*canary; };
  const long base = canary.use_count();  // canary + the hold lambda's copy
  q.schedule_now(hold);                            // same-tick FIFO lane
  q.schedule_in(1, hold);                          // wheel level 0
  q.schedule_in(300, hold);                        // wheel level 1
  q.schedule_in(70'000, hold);                     // wheel level 2
  q.schedule_in(Cycles{1} << 25, hold);            // wheel level 3
  q.schedule_in(Cycles{1} << 33, hold);            // beyond horizon: heap
  q.schedule_wire(200, 1, hold);                   // wire band
  EXPECT_EQ(q.pending(), 7u);
  EXPECT_EQ(canary.use_count(), base + 7);

  q.clear();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  // clear() must have destroyed every captured action, in every tier.
  EXPECT_EQ(canary.use_count(), base);

  // The queue stays usable: time is unchanged and new events still fire.
  EXPECT_EQ(q.now(), 100u);
  int fired = 0;
  q.schedule_in(5, [&] { ++fired; });
  q.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 105u);
}

// --------------------------------------------------------------- wire band
// The wire band contract (docs/engine.md): at equal time, wire events fire
// before every (time, seq) event, and order among themselves by key — not by
// insertion order.

TYPED_TEST(Directed, WireFiresBeforeSeqAndByKey) {
  TypeParam q;
  std::vector<std::string> order;

  q.schedule_at(10, [&order] { order.push_back("seq-a"); });
  // Wire events inserted in descending key order: must fire ascending.
  q.schedule_wire(10, 30, [&order] { order.push_back("wire-30"); });
  q.schedule_wire(10, 20, [&order] { order.push_back("wire-20"); });
  q.schedule_wire(10, 25, [&order] { order.push_back("wire-25"); });
  q.schedule_at(10, [&order] { order.push_back("seq-b"); });
  q.schedule_wire(5, 99, [&order] { order.push_back("wire-early"); });

  q.run_until_idle();
  EXPECT_EQ(order,
            (std::vector<std::string>{"wire-early", "wire-20", "wire-25",
                                      "wire-30", "seq-a", "seq-b"}));
  EXPECT_EQ(q.events_fired(), 6u);
  EXPECT_EQ(q.now(), 10u);
}

TYPED_TEST(Directed, NextTimeSeesWire) {
  TypeParam q;
  int fired = 0;
  q.schedule_wire(7, 1, [&fired] { ++fired; });
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_time(), 7u);
  // A deadline before the wire event leaves it pending.
  EXPECT_FALSE(q.run_until(6));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.run_until(7));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace svmsim::engine
