#include "memsys/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace svmsim::memsys {

Cache::Cache(const CacheParams& p)
    : params_(p),
      line_shift_(static_cast<unsigned>(std::countr_zero(p.line_bytes))),
      set_mask_(p.size_bytes / (p.line_bytes * p.associativity) - 1),
      assoc_(p.associativity) {
  // ArchParams::validate() rejects these geometries before a Machine exists.
  assert(p.line_bytes >= 8 && std::has_single_bit(p.line_bytes) &&
         p.associativity > 0 && std::has_single_bit(set_mask_ + 1) &&
         "cache geometry must be power-of-two with lines of >= 8 bytes");
  ways_.resize(static_cast<std::size_t>(set_mask_ + 1) * assoc_);
}

std::uint32_t Cache::way_of(const std::uint64_t* set,
                            std::uint64_t line_addr) const {
  const std::uint64_t want = line_addr | kValid;
  std::uint32_t w = 0;
  while (w < assoc_ && (set[w] & ~kDirty) != want) ++w;
  return w;
}

bool Cache::lookup(std::uint64_t line_addr, bool mark_dirty) {
  std::uint64_t* set = set_of(line_addr);
  const std::uint32_t w = way_of(set, line_addr);
  if (w == assoc_) {
    ++misses_;
    return false;
  }
  const std::uint64_t word = set[w];
  std::copy_backward(set, set + w, set + w + 1);
  set[0] = mark_dirty ? word | kDirty : word;
  ++hits_;
  return true;
}

bool Cache::contains(std::uint64_t line_addr) const {
  return way_of(set_of(line_addr), line_addr) != assoc_;
}

void Cache::set_resident(std::uint64_t line_addr) {
  const std::uint64_t i = line_addr >> line_shift_;
  if (i / 64 >= resident_.size()) {
    resident_.resize(
        std::max<std::size_t>(i / 64 + 1, 2 * resident_.size()), 0);
  }
  resident_[i / 64] |= std::uint64_t{1} << (i % 64);
}

Cache::Victim Cache::fill(std::uint64_t line_addr, bool dirty) {
  assert((line_addr & (params_.line_bytes - 1)) == 0 &&
         "fill of an unaligned line");
  assert(!contains(line_addr) && "fill of a resident line");
  std::uint64_t* set = set_of(line_addr);
  const std::uint64_t last = set[assoc_ - 1];
  std::copy_backward(set, set + assoc_ - 1, set + assoc_);
  set[0] = line_addr | kValid | (dirty ? kDirty : 0);
  Victim out;
  if ((last & kValid) != 0) {
    out.evicted = true;
    out.dirty = (last & kDirty) != 0;
    out.line_addr = last & ~kFlags;
    clear_resident(out.line_addr);
  }
  set_resident(line_addr);
  return out;
}

void Cache::invalidate_range(std::uint64_t start, std::uint64_t len) {
  const std::uint64_t lb = params_.line_bytes;
  // Bits [first, last) are the line addresses in [start, start + len); the
  // range may be unaligned at either end (AURC invalidates partial pages).
  const std::uint64_t first = (start + lb - 1) >> line_shift_;
  const std::uint64_t last =
      std::min<std::uint64_t>((start + len + lb - 1) >> line_shift_,
                              std::uint64_t{64} * resident_.size());
  if (first >= last) return;
  for (std::uint64_t w = first / 64; w <= (last - 1) / 64; ++w) {
    std::uint64_t bits = resident_[w];
    if (w == first / 64) bits &= ~std::uint64_t{0} << (first % 64);
    if (w == (last - 1) / 64 && last % 64 != 0) {
      bits &= ~(~std::uint64_t{0} << (last % 64));
    }
    resident_[w] &= ~bits;
    for (; bits != 0; bits &= bits - 1) {
      const std::uint64_t line_addr =
          (w * 64 + static_cast<unsigned>(std::countr_zero(bits)))
          << line_shift_;
      std::uint64_t* set = set_of(line_addr);
      const std::uint32_t way = way_of(set, line_addr);
      assert(way != assoc_ && "resident bit without a valid line");
      std::copy(set + way + 1, set + assoc_, set + way);
      set[assoc_ - 1] = 0;
    }
  }
}

}  // namespace svmsim::memsys
