#include "svm/page_directory.hpp"

#include <cassert>

namespace svmsim::svm {

void PageDirectory::record_interval(NodeId n, std::uint32_t index,
                                    std::span<const PageId> pages) {
  auto& l = log_[static_cast<std::size_t>(n)];
  assert(index == l.ends.size() + 1 && "intervals must be recorded in order");
  (void)index;
  l.pages.insert(l.pages.end(), pages.begin(), pages.end());
  l.ends.push_back(static_cast<std::uint32_t>(l.pages.size()));
}

std::uint64_t PageDirectory::collect_notices(
    const VClock& have, const VClock& target,
    const std::function<void(PageId, NodeId)>& fn) const {
  std::uint64_t count = 0;
  for (NodeId n = 0; n < nodes(); ++n) {
    const auto& l = log_[static_cast<std::size_t>(n)];
    const std::uint32_t from = have.get(n);
    const std::uint32_t to = target.get(n);
    if (from >= to) continue;
      const std::uint32_t lo = begin_of(l, from);
    const std::uint32_t hi = l.ends[to - 1];
    for (std::uint32_t i = lo; i < hi; ++i) {
      fn(l.pages[i], n);
    }
    count += hi - lo;
  }
  return count;
}

std::uint64_t PageDirectory::count_notices(const VClock& have,
                                           const VClock& target) const {
  std::uint64_t count = 0;
  for (NodeId n = 0; n < nodes(); ++n) {
    const auto& l = log_[static_cast<std::size_t>(n)];
    const std::uint32_t from = have.get(n);
    const std::uint32_t to = target.get(n);
    if (from >= to) continue;
      count += l.ends[to - 1] - begin_of(l, from);
  }
  return count;
}

}  // namespace svmsim::svm
