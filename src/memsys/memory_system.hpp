// Per-processor memory hierarchy: write-through L1 + write buffer +
// write-back L2, sharing the node's split-transaction memory bus.
//
// The fast path (hits, stores) is a plain function that only returns a cycle
// count: like augmint-style execution-driven simulators, hit latencies
// accumulate on the processor's local clock and never touch the event queue.
// Only L2 misses (and background writebacks/retirements) arbitrate for the
// bus on the global timeline.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "engine/simulator.hpp"
#include "engine/task.hpp"
#include "memsys/cache.hpp"
#include "memsys/memory_bus.hpp"
#include "memsys/write_buffer.hpp"

namespace svmsim::memsys {

class ProcMemory {
 public:
  ProcMemory(engine::Simulator& sim, const ArchParams& arch, MemoryBus& bus);

  [[nodiscard]] std::uint32_t line_bytes() const noexcept {
    return l1_.line_bytes();
  }
  /// log2(line_bytes()): L1 and L2 share one line size.
  [[nodiscard]] unsigned line_shift() const noexcept {
    return l1_.line_shift();
  }

  /// A load of one cache line, fast path. Returns the hit latency, or
  /// nullopt if the line misses to memory (call `read_line_slow`).
  /// `now` is the processor's current local time.
  [[nodiscard]] std::optional<Cycles> read_line_fast(std::uint64_t line_addr,
                                                     Cycles now);

  /// A load that missed: fetch the line over the memory bus. Simulated time
  /// advances; returns the cycles the processor stalled.
  engine::Task<Cycles> read_line_slow(std::uint64_t line_addr);

  /// A store to one line: write-through L1 + write buffer. Always completes
  /// locally; returns {issue cycles, write-buffer-full stall cycles}.
  struct StoreCost {
    Cycles issue;
    Cycles wb_stall;
  };
  StoreCost write_line(std::uint64_t line_addr, Cycles now);

  /// Page replaced or invalidated by the SVM layer: drop stale lines.
  void invalidate_range(std::uint64_t start, std::uint64_t len);

  [[nodiscard]] const Cache& l1() const noexcept { return l1_; }
  [[nodiscard]] const Cache& l2() const noexcept { return l2_; }
  [[nodiscard]] const WriteBuffer& wb() const noexcept { return wb_; }

 private:
  /// Account a retired write-buffer entry: L2 write-allocate; misses and
  /// dirty evictions produce background bus traffic.
  void absorb_retired(const std::vector<std::uint64_t>& retired);
  void background_fill(std::uint64_t line_addr, BusMaster master);

  engine::Simulator* sim_;
  const ArchParams* arch_;
  MemoryBus* bus_;
  Cache l1_;
  Cache l2_;
  WriteBuffer wb_;
  std::vector<std::uint64_t> retired_scratch_;
};

}  // namespace svmsim::memsys
