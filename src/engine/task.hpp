// A lazy coroutine task type used for every simulated process.
//
// Simulated processors, protocol handlers and NI firmware are all written as
// coroutines returning Task<T>. Awaiting a Task starts it; when the callee
// finishes it transfers control back to the awaiter symmetrically, so deep
// protocol call chains cost no stack and no event-queue traffic. Only real
// simulated waiting (delays, resources, message arrival) goes through the
// event queue.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "engine/frame_pool.hpp"

namespace svmsim::engine {

template <typename T = void>
class [[nodiscard]] Task;

namespace detail {

struct PromiseBase {
#ifndef SVMSIM_NO_FRAME_POOL
  // Coroutine frames are the single hottest allocation in the simulator;
  // recycle them through the thread-local FramePool (see frame_pool.hpp).
  static void* operator new(std::size_t n) { return FramePool::tls().allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::tls().deallocate(p, n);
  }
#endif

  std::coroutine_handle<> continuation;  // resumed when this task completes
  std::exception_ptr error;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      auto& promise = h.promise();
      if (promise.continuation) return promise.continuation;
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};

}  // namespace detail

/// Lazy task: does nothing until awaited (or detached via spawn()).
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Task get_return_object() noexcept {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task() noexcept = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(handle_);
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        handle.promise().continuation = cont;
        return handle;  // start the child task
      }
      T await_resume() {
        auto& p = handle.promise();
        if (p.error) std::rethrow_exception(p.error);
        return std::move(*p.value);
      }
    };
    assert(handle_ && "awaiting an empty Task");
    return Awaiter{handle_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;

  friend struct promise_type;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() noexcept {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() noexcept {}
  };

  Task() noexcept = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(handle_);
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        handle.promise().continuation = cont;
        return handle;
      }
      void await_resume() {
        auto& p = handle.promise();
        if (p.error) std::rethrow_exception(p.error);
      }
    };
    assert(handle_ && "awaiting an empty Task");
    return Awaiter{handle_};
  }

  // spawn() needs to adopt the handle and manage the frame itself.
  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(handle_, {});
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;

  friend struct promise_type;
};

namespace detail {

/// Intrusive link base for a spawned (detached) coroutine frame; the handle
/// lets FrameRegistry::destroy_all() destroy the frame through its promise.
struct FrameNode {
  FrameNode* prev = nullptr;
  FrameNode* next = nullptr;
  std::coroutine_handle<> handle{};
};

}  // namespace detail

/// Tracks the live spawned coroutines of one simulation. Each promise
/// records the registry that was current at spawn time and always unlinks
/// from *that* registry. Single-threaded, like the simulation it serves.
class FrameRegistry {
 public:
  FrameRegistry() noexcept = default;
  FrameRegistry(const FrameRegistry&) = delete;
  FrameRegistry& operator=(const FrameRegistry&) = delete;

  /// The per-thread default registry (standalone simulators and tests).
  static FrameRegistry& tls() noexcept {
    thread_local FrameRegistry reg;
    return reg;
  }

  /// The override slot: when non-null, spawn() registers frames here
  /// instead of in tls(). Installed via ScopedFrameRegistry.
  static FrameRegistry*& current_slot() noexcept {
    thread_local FrameRegistry* cur = nullptr;
    return cur;
  }

  /// Registry new spawns land in on this thread.
  static FrameRegistry& current() noexcept {
    FrameRegistry* cur = current_slot();
    return cur != nullptr ? *cur : tls();
  }

  void link(detail::FrameNode* n) noexcept {
    n->next = head_;
    if (head_ != nullptr) head_->prev = n;
    head_ = n;
  }

  void unlink(detail::FrameNode* n) noexcept {
    if (n->prev != nullptr) {
      n->prev->next = n->next;
    } else {
      head_ = n->next;
    }
    if (n->next != nullptr) n->next->prev = n->prev;
  }

  /// Destroy every spawned coroutine still suspended in this registry. Call
  /// only while the simulation is being torn down (after the event queues
  /// are cleared, before the objects the frames reference die): the frames
  /// never run again, only their destructors do.
  void destroy_all() noexcept {
    while (head_ != nullptr) head_->handle.destroy();
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }

 private:
  detail::FrameNode* head_ = nullptr;
};

/// RAII: route spawn() on this thread into `reg` for the current scope.
class ScopedFrameRegistry {
 public:
  explicit ScopedFrameRegistry(FrameRegistry& reg) noexcept
      : prev_(std::exchange(FrameRegistry::current_slot(), &reg)) {}
  ~ScopedFrameRegistry() { FrameRegistry::current_slot() = prev_; }
  ScopedFrameRegistry(const ScopedFrameRegistry&) = delete;
  ScopedFrameRegistry& operator=(const ScopedFrameRegistry&) = delete;

 private:
  FrameRegistry* prev_;
};

namespace detail {

/// Self-destroying top-level coroutine used by spawn(). Live frames are
/// threaded on their FrameRegistry so Machine teardown can destroy loops
/// and blocked processes that never complete (NIC service loops, workloads
/// parked on a sync object when a run is abandoned); the frames
/// transitively own their child Task frames, which release pooled refs and
/// other resources through ordinary destructors.
struct Detached {
  struct promise_type : FrameNode {
#ifndef SVMSIM_NO_FRAME_POOL
    static void* operator new(std::size_t n) {
      return FramePool::tls().allocate(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      FramePool::tls().deallocate(p, n);
    }
#endif
    FrameRegistry* registry;

    promise_type() noexcept : registry(&FrameRegistry::current()) {
      handle = std::coroutine_handle<promise_type>::from_promise(*this);
      registry->link(this);
    }
    ~promise_type() { registry->unlink(this); }

    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() {
      // A simulated process leaked an exception: that is a bug in the
      // simulator or an application kernel, never a recoverable condition.
      std::terminate();
    }
  };
};

inline Detached drive(Task<void> task) { co_await std::move(task); }

}  // namespace detail

/// Start `task` as an independent simulated process. The coroutine frame
/// frees itself on completion and is tracked by the thread's current
/// FrameRegistry until then.
inline void spawn(Task<void> task) { detail::drive(std::move(task)); }

/// Destroy every spawned coroutine still suspended in this thread's current
/// registry. See FrameRegistry::destroy_all() for the teardown contract.
inline void destroy_lingering_frames() noexcept {
  FrameRegistry::current().destroy_all();
}

}  // namespace svmsim::engine
