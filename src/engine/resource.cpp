#include "engine/resource.hpp"

#include <algorithm>

namespace svmsim::engine {

namespace {

// Awaiter that enqueues the coroutine into a FIFO wait list unless the
// resource is free, in which case it proceeds immediately.
struct FifoWait {
  bool& busy;
  RingQueue<std::coroutine_handle<>>& waiters;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    if (!busy) {
      busy = true;
      return false;
    }
    waiters.push_back(h);
    return true;
  }
  void await_resume() const noexcept {}
};

}  // namespace

Task<void> Resource::acquire() {
  co_await FifoWait{busy_, waiters_};
  // When resumed from the wait list, release() has already kept busy_ true
  // on our behalf.
}

void Resource::release() {
  if (!waiters_.empty()) {
    auto h = waiters_.front();
    waiters_.pop_front();
    // Hand over ownership directly: busy_ stays true for the new holder.
    sim_->queue().schedule_now([h] { h.resume(); });
  } else {
    busy_ = false;
  }
}

Task<void> Resource::serve(Cycles service) {
  co_await acquire();
  ++grants_;
  busy_cycles_ += service;
  if (service > 0) co_await sim_->delay(service);
  release();
}

Task<void> Resource::with(std::function<Task<void>()> body) {
  co_await acquire();
  ++grants_;
  const Cycles start = sim_->now();
  try {
    co_await body();
  } catch (...) {
    busy_cycles_ += sim_->now() - start;
    release();
    throw;
  }
  busy_cycles_ += sim_->now() - start;
  release();
}

Task<void> PriorityResource::serve(int priority, Cycles service) {
  struct PrioWait {
    PriorityResource& r;
    int priority;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      if (!r.busy_) {
        r.busy_ = true;
        return false;
      }
      r.waiters_.push_back(Waiter{priority, r.next_seq_++, h});
      std::push_heap(r.waiters_.begin(), r.waiters_.end(), After{});
      return true;
    }
    void await_resume() const noexcept {}
  };

  co_await PrioWait{*this, priority};
  ++grants_;
  const Cycles occupancy = arbitration_ + service;
  busy_cycles_ += occupancy;
  if (occupancy > 0) co_await sim_->delay(occupancy);
  if (!waiters_.empty()) {
    std::pop_heap(waiters_.begin(), waiters_.end(), After{});
    auto h = waiters_.back().handle;
    waiters_.pop_back();
    sim_->queue().schedule_now([h] { h.resume(); });  // busy_ stays true
  } else {
    busy_ = false;
  }
}

}  // namespace svmsim::engine
