// Lazy coroutine task for the simulator.
//
// Task<T> is the unit of composition for protocol logic: a coroutine that
// starts suspended, is resumed when first awaited, and resumes its awaiter
// (via symmetric transfer) when it completes. Ownership is strict: the Task
// object owns the frame; destroying a Task destroys a suspended child chain,
// and every awaiter in this codebase deregisters itself on destruction, so
// tearing down a half-finished simulation is safe. Awaiters that hold an
// Engine::TimerNode* additionally clear it on resume — the engine recycles
// nodes after firing, so a handle is only valid while its entry is queued.
//
// Simulation code never throws across coroutine boundaries: protocol errors
// are Result values, programming errors abort (see common/result.h), so
// unhandled_exception terminates.
//
// Frames come from the calling thread's FramePool (sim/frame_pool.h), not
// the global heap.
#pragma once

#include <coroutine>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/assert.h"
#include "sim/frame_pool.h"

namespace ordma::sim {

template <typename T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;

  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* frame, std::size_t n) noexcept {
    FramePool::deallocate(frame, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      auto& c = h.promise().continuation;
      return c ? c : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { std::abort(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object() noexcept;
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      reset();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_ && h_.done(); }

  // Awaiting a Task starts (or resumes) it and suspends the caller until the
  // task completes; the task's result is returned from co_await.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;  // symmetric transfer into the child
      }
      T await_resume() {
        if constexpr (!std::is_void_v<T>) {
          ORDMA_CHECK_MSG(h.promise().value.has_value(),
                          "Task finished without a value");
          return std::move(*h.promise().value);
        }
      }
    };
    return Awaiter{h_};
  }

  // Release ownership of the frame (used by Engine::spawn, which takes over
  // lifetime management of detached processes).
  Handle release() { return std::exchange(h_, {}); }

  // Non-owning access to the frame (Engine needs the handle to schedule the
  // first resumption of a process it owns).
  Handle raw_handle() const { return h_; }

 private:
  void reset() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}
inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace ordma::sim
