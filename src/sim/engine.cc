#include "sim/engine.h"

#include "common/assert.h"
#include "common/log.h"

namespace ordma::sim {

Engine::Engine()
    : arena_(mem::current_arena()
                 ? mem::current_arena()
                 : (owned_arena_ = std::make_unique<mem::Arena>()).get()),
      heap_(mem::ArenaAllocator<std::int64_t>(arena_)),
      table_(mem::ArenaAllocator<std::byte>(arena_)),
      ring_(mem::ArenaAllocator<TimerNode*>(arena_)) {
  // Make log lines carry simulated time (last constructed engine wins; the
  // destructor only clears its own registration).
  Log::set_clock(
      [](const void* e) {
        return static_cast<long long>(
            static_cast<const Engine*>(e)->now().ns);
      },
      this);
}

Engine::~Engine() {
  Log::clear_clock(this);
  // Destroy still-live processes first (their awaiter destructors cancel any
  // timers / unlink from wait queues — the nodes they touch stay alive until
  // the slab sweep below). Then run the TimerNode destructors explicitly:
  // the nodes live in arena memory, so nothing else will, and a pending
  // callback's InlineFn may own resources (captured Buffers, coroutine
  // frames' awaitable state).
  processes_.clear();
  for (TimerNode* slab : slabs_) {
    for (std::size_t i = 0; i < kSlabNodes; ++i) slab[i].~TimerNode();
  }
}

void Engine::grow_pool() {
  TimerNode* slab = arena_->allocate_array<TimerNode>(kSlabNodes);
  for (std::size_t i = kSlabNodes; i-- > 0;) {
    ::new (static_cast<void*>(&slab[i])) TimerNode();
    slab[i].next = free_nodes_;
    free_nodes_ = &slab[i];
  }
  slabs_.push_back(slab);
}

void Engine::grow_ring() {
  const std::size_t old_cap = ring_.size();
  const std::size_t new_cap = old_cap == 0 ? 1024 : old_cap * 2;
  ArenaVec<TimerNode*> bigger(new_cap,
                              mem::ArenaAllocator<TimerNode*>(arena_));
  const std::size_t count = ring_tail_ - ring_head_;
  for (std::size_t i = 0; i < count; ++i) {
    bigger[i] = ring_[(ring_head_ + i) & ring_mask_];
  }
  ring_ = std::move(bigger);
  ring_mask_ = new_cap - 1;
  ring_head_ = 0;
  ring_tail_ = count;
}

void Engine::fire(TimerNode* node) {
  if (!node->cancelled) {
    if (node->coro) {
      node->coro.resume();
    } else if (node->fn) {
      node->fn();
    }
  }
}

Task<void> Engine::run_process(std::uint64_t pid, Task<void> body) {
  co_await std::move(body);
  ProcessState* state = processes_.find(pid);
  ORDMA_CHECK(state != nullptr);
  state->finished = true;
  reap_list_.push_back(pid);
}

std::uint64_t Engine::spawn(Task<void> t) {
  const std::uint64_t pid = next_pid_++;
  ProcessState* state = processes_.try_emplace(pid).first;
  state->task = run_process(pid, std::move(t));
  schedule_coro(Duration{0}, state->task.raw_handle());
  return pid;
}

void Engine::reap_finished() {
  // A finishing process can itself spawn processes that finish at the same
  // instant, so drain iteratively.
  while (!reap_list_.empty()) {
    const std::uint64_t pid = reap_list_.back();
    reap_list_.pop_back();
    const ProcessState* state = processes_.find(pid);
    if (state != nullptr && state->finished) {
      processes_.erase(pid);  // Task dtor destroys the (final-suspended) frame
    }
  }
}

std::uint64_t Engine::run() {
  std::uint64_t fired = 0;
  for (;;) {
    TimerNode* node;
    if (cur_head_) {
      // Current instant's bucket: scheduled before `now` (positive delay),
      // so these precede everything in the ring (scheduled at `now`).
      node = cur_head_;
      cur_head_ = node->next;
    } else if (!ring_empty()) {
      node = ring_pop();
    } else if (!heap_.empty()) {
      const std::int64_t when = heap_[0];
      heap_pop();
      ORDMA_CHECK(when >= now_.ns);
      advance_clock(when);
      cur_head_ = take_bucket(when);
      node = cur_head_;
      cur_head_ = node->next;
    } else {
      break;
    }
    fire(node);
    recycle(node);
    ++fired;
    reap_finished();
  }
  return fired;
}

std::uint64_t Engine::run_until(SimTime until) {
  std::uint64_t fired = 0;
  // Bucket/ring entries fire at `now`, so they are in bounds iff
  // now_ <= until (run_until may be called with `until` in the past;
  // nothing fires then).
  for (;;) {
    TimerNode* node;
    if (cur_head_ && now_ <= until) {
      node = cur_head_;
      cur_head_ = node->next;
    } else if (!ring_empty() && now_ <= until) {
      node = ring_pop();
    } else if (!heap_.empty() && heap_[0] <= until.ns) {
      const std::int64_t when = heap_[0];
      heap_pop();
      ORDMA_CHECK(when >= now_.ns);
      advance_clock(when);
      cur_head_ = take_bucket(when);
      node = cur_head_;
      cur_head_ = node->next;
    } else {
      break;
    }
    fire(node);
    recycle(node);
    ++fired;
    reap_finished();
  }
  if (now_ < until) advance_clock(until.ns);
  return fired;
}

}  // namespace ordma::sim
