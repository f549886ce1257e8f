// Set-associative cache tag store (timing only — data lives in the SVM
// address space). Used for both the write-through L1 and write-back L2.
//
// Resident-line bitmap invariant: bit (a / line_bytes) of `resident_` is set
// exactly when a valid line with address `a` is in the tag store. fill()
// sets the new line's bit and clears the victim's; invalidate_range() clears
// the bits of the lines it drops. Every resident address is line-aligned, so
// a page invalidation reads one bitmap word per 64 lines of the range and
// probes only the lines actually cached, instead of probing every line of
// the page; a range past the highest filled address costs nothing. The
// bitmap grows on demand to one bit per line up to the highest address
// filled (shared bytes / 512 per cache at 64 B lines).
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "engine/types.hpp"

namespace svmsim::memsys {

class Cache {
 public:
  explicit Cache(const CacheParams& p);

  /// Probe for `line_addr` (byte address of the line start). On hit, updates
  /// LRU and optionally marks the line dirty.
  bool lookup(std::uint64_t line_addr, bool mark_dirty = false);

  /// Probe without disturbing LRU/dirty state.
  [[nodiscard]] bool contains(std::uint64_t line_addr) const;

  struct Victim {
    bool evicted = false;           // a valid line was displaced
    bool dirty = false;             // ... and it needs a writeback
    std::uint64_t line_addr = 0;
  };

  /// Install `line_addr` (line-aligned, not already resident), evicting the
  /// LRU way. Returns the victim.
  Victim fill(std::uint64_t line_addr, bool dirty);

  /// Drop every line whose address lies in [start, start+len); the range
  /// need not be line-aligned. Used when the SVM layer invalidates or
  /// replaces a page (or, under AURC, part of one): stale cached lines must
  /// not hit.
  void invalidate_range(std::uint64_t start, std::uint64_t len);

  [[nodiscard]] std::uint32_t line_bytes() const noexcept {
    return params_.line_bytes;
  }
  [[nodiscard]] Cycles hit_cycles() const noexcept {
    return params_.hit_cycles;
  }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }

 private:
  struct Line {
    std::uint64_t addr = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  [[nodiscard]] std::uint32_t set_of(std::uint64_t line_addr) const {
    return static_cast<std::uint32_t>((line_addr / params_.line_bytes) %
                                      sets_);
  }
  Line* find(std::uint64_t line_addr);
  [[nodiscard]] const Line* find(std::uint64_t line_addr) const;
  void set_resident(std::uint64_t line_addr);
  void clear_resident(std::uint64_t line_addr) {
    const std::uint64_t i = line_addr / params_.line_bytes;
    resident_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }

  CacheParams params_;
  std::uint32_t sets_;
  std::vector<Line> lines_;  // sets_ x associativity, row-major by set
  std::vector<std::uint64_t> resident_;  // see the invariant at the top
  std::uint64_t tick_ = 0;   // LRU clock
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace svmsim::memsys
