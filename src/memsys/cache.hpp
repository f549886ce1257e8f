// Set-associative cache tag store (timing only — data lives in the SVM
// address space). Used for both the write-through L1 and write-back L2.
//
// Each way is one 64-bit word: the line-aligned address with the valid and
// dirty flags in its low bits (a line is at least 8 bytes, so they are
// free); an invalid way is 0. Each set keeps its ways in recency order, MRU
// first and invalid ways last. A hit rotates its way to the front; fill()
// shifts the set down one place, so the displaced last word is the victim
// when it is valid; invalidate_range() removes a way and closes the gap,
// leaving an invalid word at the end. That is true LRU with no clock: the
// victim is an invalid way if any, else the least recently touched one.
//
// Geometry is power-of-two throughout (ArchParams::validate() rejects the
// rest), so the set index is a shift and a mask.
//
// Resident-line bitmap invariant: bit (a >> line_shift) of `resident_` is
// set exactly when a valid line with address `a` is in the tag store. fill()
// sets the new line's bit and clears the victim's; invalidate_range() clears
// the bits of the lines it drops. A page invalidation therefore reads one
// bitmap word per 64 lines of the range and probes only the lines actually
// cached; a range past the highest filled address costs nothing. The bitmap
// grows on demand to one bit per line up to the highest address filled
// (shared bytes / 512 per cache at 64 B lines).
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "engine/types.hpp"

namespace svmsim::memsys {

class Cache {
 public:
  explicit Cache(const CacheParams& p);

  /// Probe for `line_addr` (byte address of the line start). On hit, makes
  /// the line most recently used and optionally marks it dirty.
  bool lookup(std::uint64_t line_addr, bool mark_dirty = false);

  /// Probe without disturbing recency/dirty state.
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
  [[nodiscard]] unsigned line_shift() const noexcept { return line_shift_; }
  [[nodiscard]] Cycles hit_cycles() const noexcept {
    return params_.hit_cycles;
  }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint32_t sets() const noexcept { return set_mask_ + 1; }

 private:
  static constexpr std::uint64_t kValid = 1;
  static constexpr std::uint64_t kDirty = 2;
  static constexpr std::uint64_t kFlags = kValid | kDirty;

  [[nodiscard]] std::uint64_t* set_of(std::uint64_t line_addr) {
    return &ways_[((line_addr >> line_shift_) & set_mask_) * assoc_];
  }
  [[nodiscard]] const std::uint64_t* set_of(std::uint64_t line_addr) const {
    return const_cast<Cache*>(this)->set_of(line_addr);
  }
  /// Index of `line_addr`'s valid way in `set`, or assoc_ when absent.
  [[nodiscard]] std::uint32_t way_of(const std::uint64_t* set,
                                     std::uint64_t line_addr) const;
  void set_resident(std::uint64_t line_addr);
  void clear_resident(std::uint64_t line_addr) {
    const std::uint64_t i = line_addr >> line_shift_;
    resident_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }

  CacheParams params_;
  unsigned line_shift_;     // log2(line_bytes)
  std::uint32_t set_mask_;  // sets - 1
  std::uint32_t assoc_;
  std::vector<std::uint64_t> ways_;  // sets x assoc, each set in MRU order
  std::vector<std::uint64_t> resident_;  // see the invariant at the top
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace svmsim::memsys
