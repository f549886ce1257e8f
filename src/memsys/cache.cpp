#include "memsys/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace svmsim::memsys {

Cache::Cache(const CacheParams& p) : params_(p) {
  assert(p.line_bytes > 0 && p.associativity > 0);
  sets_ = p.size_bytes / (p.line_bytes * p.associativity);
  assert(sets_ > 0 && (sets_ & (sets_ - 1)) == 0 &&
         "cache set count must be a power of two");
  lines_.resize(static_cast<std::size_t>(sets_) * p.associativity);
}

Cache::Line* Cache::find(std::uint64_t line_addr) {
  const std::uint32_t s = set_of(line_addr);
  Line* base = &lines_[static_cast<std::size_t>(s) * params_.associativity];
  for (std::uint32_t w = 0; w < params_.associativity; ++w) {
    if (base[w].valid && base[w].addr == line_addr) return &base[w];
  }
  return nullptr;
}

const Cache::Line* Cache::find(std::uint64_t line_addr) const {
  return const_cast<Cache*>(this)->find(line_addr);
}

bool Cache::lookup(std::uint64_t line_addr, bool mark_dirty) {
  if (Line* l = find(line_addr)) {
    l->lru = ++tick_;
    if (mark_dirty) l->dirty = true;
    ++hits_;
    return true;
  }
  ++misses_;
  return false;
}

bool Cache::contains(std::uint64_t line_addr) const {
  return find(line_addr) != nullptr;
}

void Cache::set_resident(std::uint64_t line_addr) {
  const std::uint64_t i = line_addr / params_.line_bytes;
  if (i / 64 >= resident_.size()) {
    resident_.resize(
        std::max<std::size_t>(i / 64 + 1, 2 * resident_.size()), 0);
  }
  resident_[i / 64] |= std::uint64_t{1} << (i % 64);
}

Cache::Victim Cache::fill(std::uint64_t line_addr, bool dirty) {
  assert(line_addr % params_.line_bytes == 0 && "fill of an unaligned line");
  assert(!contains(line_addr) && "fill of a resident line");
  const std::uint32_t s = set_of(line_addr);
  Line* base = &lines_[static_cast<std::size_t>(s) * params_.associativity];
  Line* victim = &base[0];
  for (std::uint32_t w = 0; w < params_.associativity; ++w) {
    Line& l = base[w];
    if (!l.valid) {
      victim = &l;
      break;
    }
    if (l.lru < victim->lru) victim = &l;
  }
  Victim out;
  if (victim->valid) {
    out.evicted = true;
    out.dirty = victim->dirty;
    out.line_addr = victim->addr;
    clear_resident(victim->addr);
  }
  set_resident(line_addr);
  victim->valid = true;
  victim->addr = line_addr;
  victim->dirty = dirty;
  victim->lru = ++tick_;
  return out;
}

void Cache::invalidate_range(std::uint64_t start, std::uint64_t len) {
  const std::uint64_t lb = params_.line_bytes;
  // Bits [first, last) are the line addresses in [start, start + len); the
  // range may be unaligned at either end (AURC invalidates partial pages).
  const std::uint64_t first = (start + lb - 1) / lb;
  const std::uint64_t last =
      std::min<std::uint64_t>((start + len + lb - 1) / lb,
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
      const std::uint64_t i =
          w * 64 + static_cast<unsigned>(std::countr_zero(bits));
      Line* l = find(i * lb);
      assert(l != nullptr && "resident bit without a valid line");
      l->valid = false;
      l->dirty = false;
    }
  }
}

}  // namespace svmsim::memsys
