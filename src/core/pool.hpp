// Freelist-backed object pools with intrusive reference counting — the
// allocation-free backbone of the protocol hot path.
//
// A simulation point performs the same few operations (page fetch, diff
// flush, lock handoff) millions of times; allocating the payload buffers,
// diff batches and trigger episodes fresh each time dominates wall time.
// ObjectPool<T> recycles them instead: an acquired object is handed out as a
// PoolRef<T> (a refcounted smart handle); when the last reference drops, the
// object is reset via T::recycle() — which must *keep* internal capacity —
// and pushed onto the pool's freelist. Steady state therefore performs zero
// heap traffic: `vector::assign` into a recycled buffer is a memcpy.
//
// Ownership rules (see docs/memory.md):
//  * A pool is single-threaded: it belongs to one Machine, and a Machine is
//    built, run and torn down on one thread.
//  * A pool must outlive every PoolRef into it. Within a Machine this is
//    arranged by declaration order (pools are declared before the structures
//    that hold refs) plus Machine::~Machine clearing the event queue, whose
//    scheduled closures may hold refs.
//  * T::recycle() must drop references T holds into *other* pools (so bodies
//    cascade back promptly) but keep raw capacity.
//
// Under SVMSIM_POOL_PARANOID (set by the SVMSIM_SANITIZE build) recycling is
// disabled: every acquire allocates and every release frees, so ASan sees
// the true object lifetimes and use-after-release bugs are not masked by
// reuse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace svmsim::core {

template <typename T>
class ObjectPool;

namespace detail {

template <typename T>
struct PoolNode {
  T value{};
  std::uint32_t refs = 0;
  ObjectPool<T>* owner = nullptr;
};

}  // namespace detail

/// Refcounted handle to a pooled object. Copy shares, move transfers; the
/// last reference returns the object to its pool. Never outlive the pool.
template <typename T>
class PoolRef {
 public:
  PoolRef() noexcept = default;
  PoolRef(const PoolRef& o) noexcept : node_(o.node_) {
    if (node_ != nullptr) ++node_->refs;
  }
  PoolRef(PoolRef&& o) noexcept : node_(std::exchange(o.node_, nullptr)) {}
  PoolRef& operator=(const PoolRef& o) noexcept {
    if (this != &o) {
      reset();
      node_ = o.node_;
      if (node_ != nullptr) ++node_->refs;
    }
    return *this;
  }
  PoolRef& operator=(PoolRef&& o) noexcept {
    if (this != &o) {
      reset();
      node_ = std::exchange(o.node_, nullptr);
    }
    return *this;
  }
  ~PoolRef() { reset(); }

  /// Drop this reference (recycling the object if it was the last one).
  void reset() noexcept;

  [[nodiscard]] explicit operator bool() const noexcept {
    return node_ != nullptr;
  }
  [[nodiscard]] T* operator->() const noexcept { return &node_->value; }
  [[nodiscard]] T& operator*() const noexcept { return node_->value; }
  [[nodiscard]] T* get() const noexcept {
    return node_ != nullptr ? &node_->value : nullptr;
  }
  [[nodiscard]] std::uint32_t use_count() const noexcept {
    return node_ != nullptr ? node_->refs : 0;
  }

 private:
  friend class ObjectPool<T>;
  explicit PoolRef(detail::PoolNode<T>* n) noexcept : node_(n) {}
  detail::PoolNode<T>* node_ = nullptr;
};

/// Grow-only freelist of T. T must be default-constructible and provide
/// `void recycle()` resetting logical state while keeping capacity.
template <typename T>
class ObjectPool {
 public:
  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;
  // Note: the pool may be destroyed with references still outstanding when a
  // simulation is torn down mid-run (suspended coroutine frames that will
  // never resume can hold refs). Those frames are never destroyed either, so
  // no PoolRef touches the dead pool; completed runs drain back to zero
  // outstanding, which tests/test_pools.cpp checks explicitly.

  [[nodiscard]] PoolRef<T> acquire() {
    if (++live_ > peak_) peak_ = live_;
#ifdef SVMSIM_POOL_PARANOID
    auto* n = new detail::PoolNode<T>();
    ++paranoid_live_;
#else
    detail::PoolNode<T>* n = acquire_node();
#endif
    n->owner = this;
    n->refs = 1;
    return PoolRef<T>(n);
  }

  /// Objects ever created (paranoid mode: currently live).
  [[nodiscard]] std::size_t allocated() const noexcept {
#ifdef SVMSIM_POOL_PARANOID
    return paranoid_live_;
#else
    return all_.size();
#endif
  }
  /// Objects sitting on the freelist, ready for reuse.
  [[nodiscard]] std::size_t available() const noexcept {
#ifdef SVMSIM_POOL_PARANOID
    return 0;
#else
    return free_.size();
#endif
  }
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return allocated() - available();
  }
  /// High-water mark of simultaneously outstanding objects over the pool's
  /// lifetime (scale diagnostics: perf_selfcheck records it per run so the
  /// allocation-free invariant is visible at large machine sizes).
  [[nodiscard]] std::size_t peak_outstanding() const noexcept {
    return peak_;
  }

 private:
  friend class PoolRef<T>;

#ifndef SVMSIM_POOL_PARANOID
  [[nodiscard]] detail::PoolNode<T>* acquire_node() {
    if (free_.empty()) {
      all_.push_back(std::make_unique<detail::PoolNode<T>>());
      return all_.back().get();
    }
    detail::PoolNode<T>* n = free_.back();
    free_.pop_back();
    return n;
  }
#endif

  void recycle(detail::PoolNode<T>* n) {
    --live_;
#ifdef SVMSIM_POOL_PARANOID
    --paranoid_live_;
    delete n;
#else
    n->value.recycle();  // may cascade refs into other pools
    free_.push_back(n);
#endif
  }

  std::size_t live_ = 0;  ///< currently outstanding
  std::size_t peak_ = 0;  ///< lifetime high-water mark
#ifdef SVMSIM_POOL_PARANOID
  std::size_t paranoid_live_ = 0;
#else
  std::vector<std::unique_ptr<detail::PoolNode<T>>> all_;
  std::vector<detail::PoolNode<T>*> free_;
#endif
};

template <typename T>
void PoolRef<T>::reset() noexcept {
  if (node_ == nullptr) return;
  if (--node_->refs == 0) {
    node_->owner->recycle(node_);
  }
  node_ = nullptr;
}

/// A pooled byte buffer — page snapshots, AURC update runs, HLRC twins.
struct PooledBytes {
  std::vector<std::byte> bytes;
  void recycle() noexcept { bytes.clear(); }  // keep capacity
};

}  // namespace svmsim::core
