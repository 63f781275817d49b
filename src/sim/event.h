// One-shot broadcast event with an optional value — the simulator's future.
//
// Any number of coroutines may co_await wait(); set() wakes them all (in
// wait order, at the current instant). Waiters that are destroyed mid-wait
// unlink themselves, and waiters already scheduled for wake-up cancel their
// timer, so destroying a consumer never leaves a dangling resumption.
#pragma once

#include <coroutine>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/assert.h"
#include "common/intrusive_list.h"
#include "sim/engine.h"

namespace ordma::sim {

namespace detail {
struct Unit {};
template <typename T>
using EventStorage = std::conditional_t<std::is_void_v<T>, Unit, T>;
}  // namespace detail

template <typename T = void>
class Event {
 public:
  explicit Event(Engine& eng) : eng_(eng) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  // Detach any still-suspended waiters: their awaiter destructors then see
  // an unlinked node and do nothing, so an Event may be destroyed before the
  // engine tears down the coroutines waiting on it.
  ~Event() {
    while (waiters_.pop_front()) {
    }
  }

  bool is_set() const { return set_; }

  template <typename U = T>
    requires(!std::is_void_v<U>)
  void set(U value) {
    ORDMA_CHECK_MSG(!set_, "Event::set called twice");
    value_.emplace(std::move(value));
    set_ = true;
    wake_all();
  }

  template <typename U = T>
    requires(std::is_void_v<U>)
  void set() {
    ORDMA_CHECK_MSG(!set_, "Event::set called twice");
    value_.emplace();
    set_ = true;
    wake_all();
  }

  // Value access after set (only for non-void T).
  template <typename U = T>
    requires(!std::is_void_v<U>)
  const U& peek() const {
    ORDMA_CHECK(set_);
    return *value_;
  }

  class Awaiter;
  Awaiter wait() { return Awaiter(*this); }

  class TimedAwaiter;
  // Timed wait: resumes with the value once set() fires, or with
  // std::nullopt after `d` if it has not. The caller owns recovery (e.g. a
  // retransmit); the event itself stays armed and may still fire later.
  // `d <= 0` means no timeout: no timer is scheduled and only set() wakes
  // the waiter, exactly as wait() would.
  TimedAwaiter wait_for(Duration d) { return TimedAwaiter(*this, d); }

  class Awaiter {
   public:
    explicit Awaiter(Event& ev) : ev_(ev) {}
    Awaiter(const Awaiter&) = delete;
    Awaiter& operator=(const Awaiter&) = delete;
    ~Awaiter() {
      if (node_.linked()) {
        ev_.waiters_.erase(&node_);
      } else if (node_.timer) {
        node_.timer->cancelled = true;
      }
    }

    bool await_ready() const noexcept { return ev_.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      node_.h = h;
      ev_.waiters_.push_back(&node_);
    }
    T await_resume() {
      node_.timer = nullptr;
      if constexpr (!std::is_void_v<T>) {
        ORDMA_CHECK(ev_.value_.has_value());
        return *ev_.value_;  // copies: multiple waiters may consume it
      }
    }

   private:
    friend class Event;
    struct Node : ListNode {
      std::coroutine_handle<> h{};
      Engine::TimerNode* timer = nullptr;
    };
    Event& ev_;
    Node node_;
  };

  class TimedAwaiter {
   public:
    TimedAwaiter(Event& ev, Duration d) : ev_(ev), d_(d) {}
    TimedAwaiter(const TimedAwaiter&) = delete;
    TimedAwaiter& operator=(const TimedAwaiter&) = delete;
    ~TimedAwaiter() {
      if (node_.linked()) {
        ev_.waiters_.erase(&node_);
      } else if (node_.timer) {
        node_.timer->cancelled = true;
      }
      if (timeout_) timeout_->cancelled = true;
    }

    bool await_ready() const noexcept { return ev_.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      node_.h = h;
      ev_.waiters_.push_back(&node_);
      if (d_.ns <= 0) return;
      timeout_ = ev_.eng_.schedule_fn(d_, [this] {
        timeout_ = nullptr;  // the engine recycles this TimerNode after firing
        if (node_.linked()) {
          ev_.waiters_.erase(&node_);
          node_.h.resume();
        }
        // else: set() already unlinked us and scheduled the normal wake-up.
      });
    }
    std::optional<detail::EventStorage<T>> await_resume() {
      node_.timer = nullptr;
      if (timeout_) {
        timeout_->cancelled = true;
        timeout_ = nullptr;
      }
      if (!ev_.set_) return std::nullopt;
      return *ev_.value_;
    }

   private:
    friend class Event;
    Event& ev_;
    Duration d_;
    typename Awaiter::Node node_;
    Engine::TimerNode* timeout_ = nullptr;
  };

 private:
  friend class Awaiter;
  friend class TimedAwaiter;

  void wake_all() {
    while (auto* n = waiters_.pop_front()) {
      n->timer = eng_.schedule_coro(Duration{0}, n->h);
    }
  }

  Engine& eng_;
  bool set_ = false;
  std::optional<detail::EventStorage<T>> value_;
  IntrusiveList<typename Awaiter::Node> waiters_;
};

}  // namespace ordma::sim
