// Write buffer with a retire-at-K policy (paper §2).
//
// The L1 is write-through: every store enters the write buffer (coalescing
// on line granularity). Retirement toward the L2 begins once occupancy
// reaches `retire_at` and proceeds one entry per `retire_cost` cycles; the
// processor stalls only when the buffer is completely full. Draining is
// modeled analytically against the processor's local clock — retired lines
// are handed back to the caller so the L2/bus can account for them.
//
// The pending lines live in a fixed ring of `entries` slots, allocated at
// construction: the per-store path never allocates.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/types.hpp"

namespace svmsim::memsys {

class WriteBuffer {
 public:
  WriteBuffer(std::uint32_t entries, std::uint32_t retire_at,
              Cycles retire_cost)
      : ring_(entries), retire_at_(retire_at), retire_cost_(retire_cost) {}

  /// Record a store to `line_addr` at local time `now`. Lines already
  /// buffered coalesce. Returns the stall cycles suffered (non-zero only
  /// when the buffer was full). Retired lines are appended to `retired`.
  Cycles push(std::uint64_t line_addr, Cycles now,
              std::vector<std::uint64_t>& retired);

  /// Advance the drain clock to `now`, appending retired lines.
  void advance(Cycles now, std::vector<std::uint64_t>& retired);

  /// Read-hit probe (a load can be satisfied from the write buffer).
  [[nodiscard]] bool contains(std::uint64_t line_addr) const;

  [[nodiscard]] std::size_t occupancy() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t full_stalls() const noexcept {
    return full_stalls_;
  }
  [[nodiscard]] std::uint64_t coalesced() const noexcept { return coalesced_; }

 private:
  /// Remove the oldest pending line and append it to `retired`.
  void retire_front(std::vector<std::uint64_t>& retired) {
    retired.push_back(ring_[head_]);
    if (++head_ == ring_.size()) head_ = 0;
    --count_;
  }

  std::vector<std::uint64_t> ring_;  // `entries` slots, FIFO from head_
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;  // pending lines
  std::uint32_t retire_at_;
  Cycles retire_cost_;
  Cycles drain_done_ = 0;  // completion time of the in-flight retirement
  bool draining_ = false;
  std::uint64_t full_stalls_ = 0;
  std::uint64_t coalesced_ = 0;
};

}  // namespace svmsim::memsys
