#include "memsys/write_buffer.hpp"

#include <algorithm>

namespace svmsim::memsys {

void WriteBuffer::advance(Cycles now, std::vector<std::uint64_t>& retired) {
  // Complete any retirement whose finish time has passed, then keep
  // retiring while the policy says drain (occupancy >= retire_at) and the
  // clock allows. Back-to-back retirements chain from the previous
  // completion time, not from `now`.
  bool chained = false;
  while (count_ > 0) {
    if (draining_) {
      if (drain_done_ > now) return;  // in-flight retirement not done yet
      retire_front(retired);
      draining_ = false;
      chained = true;
      continue;
    }
    if (count_ < retire_at_) return;  // below drain threshold
    draining_ = true;
    const Cycles start = chained ? drain_done_ : now;
    drain_done_ = start + retire_cost_;
    chained = false;
  }
}

Cycles WriteBuffer::push(std::uint64_t line_addr, Cycles now,
                         std::vector<std::uint64_t>& retired) {
  advance(now, retired);
  if (contains(line_addr)) {
    ++coalesced_;
    return 0;
  }
  Cycles stall = 0;
  if (count_ >= ring_.size()) {
    // Full: wait for the in-flight retirement (drain is guaranteed active
    // because entries >= retire_at).
    if (!draining_) {
      draining_ = true;
      drain_done_ = std::max(drain_done_, now) + retire_cost_;
    }
    stall = drain_done_ > now ? drain_done_ - now : 0;
    retire_front(retired);
    draining_ = false;
    ++full_stalls_;
    advance(now + stall, retired);
  }
  std::size_t tail = head_ + count_;
  if (tail >= ring_.size()) tail -= ring_.size();
  ring_[tail] = line_addr;
  ++count_;
  advance(now + stall, retired);
  return stall;
}

bool WriteBuffer::contains(std::uint64_t line_addr) const {
  std::size_t i = head_;
  for (std::uint32_t n = 0; n < count_; ++n) {
    if (ring_[i] == line_addr) return true;
    if (++i == ring_.size()) i = 0;
  }
  return false;
}

}  // namespace svmsim::memsys
