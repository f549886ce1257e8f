// Contended hardware resources.
//
// Resource          — single FIFO server (NI processor, I/O bus, handler CPU).
// PriorityResource  — single server with fixed-priority arbitration and a
//                     per-grant arbitration delay (the split-transaction
//                     memory bus of the paper, whose arbitration takes one
//                     bus cycle and whose priority order is NI-out > L2 >
//                     write buffer > memory refill > NI-in).
//
// Both track busy time and grant counts so benches can report utilization.
// Wait lists are allocation-free in steady state: Resource queues waiters in
// a RingQueue, PriorityResource in a vector-backed binary heap (the old
// std::map paid a node allocation per contended bus grant).
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "engine/ring_queue.hpp"
#include "engine/simulator.hpp"
#include "engine/task.hpp"
#include "engine/types.hpp"

namespace svmsim::engine {

class Resource {
 public:
  explicit Resource(Simulator& sim) noexcept : sim_(&sim) {}

  /// Occupy the resource for `service` cycles, waiting in FIFO order first.
  /// This is the common use; bare acquire/release is not exposed to keep
  /// callers exception-safe (CP.20: no naked lock/unlock).
  Task<void> serve(Cycles service);

  /// Run `body` while holding the resource exclusively; the hold time is
  /// whatever simulated time `body` consumes. Used to serialize interrupt
  /// handlers on their victim processor.
  Task<void> with(std::function<Task<void>()> body);

  [[nodiscard]] bool busy() const noexcept { return busy_; }
  [[nodiscard]] Cycles busy_cycles() const noexcept { return busy_cycles_; }
  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return waiters_.size();
  }

  /// Event-context FIFO reservation: occupy the resource for `service`
  /// cycles starting when the committed backlog drains (never before
  /// `now`), and return the completion time. The non-coroutine sibling of
  /// serve(), for callers that cannot suspend — the topology layer
  /// (src/topo/) serializes packets on a link from scheduled hop events
  /// this way. Do not mix with serve()/with() on one resource: reserve()
  /// bypasses the waiter queue and orders grants purely by submission,
  /// which is FIFO only if every grant goes through it.
  Cycles reserve(Cycles now, Cycles service) noexcept {
    const Cycles start = committed_until_ > now ? committed_until_ : now;
    committed_until_ = start + service;
    busy_cycles_ += service;
    ++grants_;
    return committed_until_;
  }

 private:
  friend struct FifoWait;
  Task<void> acquire();
  void release();

  Simulator* sim_;
  bool busy_ = false;
  Cycles busy_cycles_ = 0;
  Cycles committed_until_ = 0;  ///< end of the reserve() backlog
  std::uint64_t grants_ = 0;
  RingQueue<std::coroutine_handle<>> waiters_;
};

class PriorityResource {
 public:
  /// `arbitration` cycles are charged on every grant, before service begins.
  PriorityResource(Simulator& sim, Cycles arbitration) noexcept
      : sim_(&sim), arbitration_(arbitration) {}

  /// Occupy the resource for `service` cycles. Lower `priority` value wins
  /// arbitration; ties are FIFO.
  Task<void> serve(int priority, Cycles service);

  [[nodiscard]] Cycles busy_cycles() const noexcept { return busy_cycles_; }
  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return waiters_.size();
  }

 private:
  struct Waiter {
    int priority;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };
  /// Heap comparator: the *minimum* (priority, seq) must surface, so order
  /// by "greater" for std::push_heap/pop_heap max-heap semantics.
  struct After {
    bool operator()(const Waiter& a, const Waiter& b) const noexcept {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  Simulator* sim_;
  Cycles arbitration_;
  bool busy_ = false;
  Cycles busy_cycles_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Waiter> waiters_;  // binary heap, see After
};

}  // namespace svmsim::engine
