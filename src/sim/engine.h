// Deterministic discrete-event engine.
//
// All simulated activity is driven by one Engine. Scheduling is split by
// delay into two structures that together preserve exact global (when, seq)
// order, where seq is the order schedule_* calls were made:
//
//  * current-tick ring — a FIFO of entries scheduled with zero delay
//    (yield(), channel/event/resource wake-ups: the dominant event class).
//    Pushing and popping is O(1) with no comparisons.
//  * future calendar — entries scheduled with a positive delay are chained
//    FIFO into a per-timestamp bucket (common/open_map.h, keyed by
//    absolute nanosecond), and a min-heap holds each *distinct* timestamp
//    once. Sim workloads collide heavily on timestamps (cost constants are
//    quantized), so the O(log n) heap sift — the dominant cost of a classic
//    event heap, being branch-mispredict bound — amortizes over every event
//    sharing the instant; the per-event cost is a hash probe and two pointer
//    writes.
//
// Ordering guarantee: entries fire in nondecreasing time; entries for the
// same instant fire in scheduling order. The split preserves this exactly:
//
//  * within one bucket, FIFO chaining is scheduling (seq) order;
//  * a bucket entry firing at time T was scheduled strictly before T (its
//    delay is positive), while every ring entry for T was scheduled at T —
//    so when time advances to T the engine first drains T's bucket (older
//    seq), then ring entries (newer seq);
//  * no entry can join T's bucket once time has advanced to T (delays are
//    strictly positive), so the bucket is detached whole and drained as a
//    plain list; ring entries only ever fire at the instant they were
//    scheduled, so the ring is empty whenever time advances.
//
// This is bit-identical to the original single-heap (when, seq) engine
// (tests/engine_determinism_test.cc holds the trace hash of the seed
// implementation).
//
// The hot path is allocation-free in steady state: timer nodes are
// recycled through a slab-backed free list, and callbacks are stored
// inline in the node (InlineFn) rather than via std::function.
//
// Detached top-level activities ("processes") are spawned with spawn(); the
// engine owns their frames and destroys them when they finish or when the
// engine is destroyed (in which case any still-suspended process chain is
// destroyed safely — every awaiter deregisters itself from its wait list or
// cancels its timer in its destructor).
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/open_map.h"
#include "common/page_table.h"
#include "common/units.h"
#include "mem/arena.h"
#include "sim/inline_fn.h"
#include "sim/task.h"

namespace ordma::sim {

class Engine {
 public:
  // A cancellable handle to a scheduled entry. The engine owns the node; a
  // holder may set `cancelled` any time before the node fires. Nodes are
  // recycled after firing, so a handle must not be touched once its entry
  // has fired (every awaiter in this codebase clears its handle on resume).
  struct TimerNode {
    std::coroutine_handle<> coro{};  // resumed if set (and not cancelled)
    bool cancelled = false;

   private:
    friend class Engine;
    // Intrusive link: bucket-FIFO chain while queued, free-list link while
    // recycled (the two states are disjoint). Declared before fn so the
    // scheduling metadata (coro, cancelled, next, fn's dispatch pointers)
    // packs into the node's first cache line; fn's inline capture buffer
    // is the cold tail.
    TimerNode* next = nullptr;

   public:
    InlineFn fn;  // called if coro is not set
  };

  // Construction installs this engine as the Log simulation clock (see
  // common/log.h); destruction clears it.
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  SimTime now() const { return now_; }

  // --- scheduling -----------------------------------------------------
  TimerNode* schedule_coro(Duration after, std::coroutine_handle<> h) {
    TimerNode* node = alloc_node();
    node->coro = h;
    return enqueue(after, node);
  }

  template <typename F>
  TimerNode* schedule_fn(Duration after, F&& f) {
    TimerNode* node = alloc_node();
    node->fn.emplace(std::forward<F>(f));
    return enqueue(after, node);
  }

  // --- coroutine awaitables -------------------------------------------
  // co_await eng.delay(d): resume this coroutine after d of simulated time.
  // Always suspends (even for d == 0) so same-tick ordering stays FIFO.
  class DelayAwaiter {
   public:
    DelayAwaiter(Engine& eng, Duration d) : eng_(eng), d_(d) {}
    DelayAwaiter(const DelayAwaiter&) = delete;
    DelayAwaiter& operator=(const DelayAwaiter&) = delete;
    ~DelayAwaiter() {
      if (node_) node_->cancelled = true;  // frame destroyed mid-wait
    }
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      node_ = eng_.schedule_coro(d_, h);
    }
    void await_resume() noexcept { node_ = nullptr; }

   private:
    Engine& eng_;
    Duration d_;
    TimerNode* node_ = nullptr;
  };
  DelayAwaiter delay(Duration d) {
    ORDMA_CHECK(d.ns >= 0);
    return DelayAwaiter(*this, d);
  }
  // Yield the current tick slice: reschedule at the same instant, behind
  // everything already queued for it.
  DelayAwaiter yield() { return DelayAwaiter(*this, Duration{0}); }

  // --- detached processes ----------------------------------------------
  // Takes ownership of the task and schedules its first resumption at the
  // current instant. Returns a process id (for debugging only).
  std::uint64_t spawn(Task<void> t);

  // Number of processes spawned and not yet finished.
  std::size_t live_processes() const { return processes_.size(); }

  // --- run loop ---------------------------------------------------------
  // Run until both queues are exhausted. Returns the number of entries
  // fired.
  std::uint64_t run();
  // Run until the queues are exhausted or simulated time would pass
  // `until`.
  std::uint64_t run_until(SimTime until);
  std::uint64_t run_for(Duration d) { return run_until(now_ + d); }

  bool idle() const {
    return heap_.empty() && ring_empty() && cur_head_ == nullptr;
  }

  // --- periodic sampling hook -------------------------------------------
  // Observer-only callback on a fixed simulated-time grid (multiples of
  // `interval`, anchored at t=0), used by obs/timeseries.h. The hook lives
  // *outside* the event queues: the run loop invokes it whenever advancing
  // the clock to the next event instant crosses one or more grid
  // boundaries, with now() set to each boundary in turn before its call.
  // Arming it therefore adds no queue entries, changes no (when, seq)
  // firing order, and cannot keep run() alive past the last real event —
  // zero perturbation by construction (pinned by golden-hash tests). A
  // boundary coinciding with an event instant fires *before* the entries
  // at that instant, so those events land in the window the boundary
  // opens, not the one it closes. The callback must not schedule, spawn or
  // otherwise touch simulation state; reading lazily-integrated component
  // counters (resource busy time) is safe because the clock already sits
  // on the boundary when it runs.
  using SampleFn = void (*)(void* ctx);
  void set_sampling_hook(Duration interval, void* ctx, SampleFn fn) {
    ORDMA_CHECK(interval.ns > 0);
    ORDMA_CHECK(sample_fn_ == nullptr);  // one sampler per engine
    sample_interval_ns_ = interval.ns;
    next_sample_ns_ = (now_.ns / interval.ns + 1) * interval.ns;
    sample_ctx_ = ctx;
    sample_fn_ = fn;
  }
  void clear_sampling_hook() {
    sample_fn_ = nullptr;
    sample_ctx_ = nullptr;
  }
  std::int64_t sampling_interval_ns() const { return sample_interval_ns_; }

 private:
  // --- future calendar --------------------------------------------------
  // Hand-rolled 4-ary min-heap over distinct timestamps: half the depth of
  // a binary heap, 8-byte entries, and all four children share a cache
  // line. Each timestamp appears exactly once; the nodes for it hang off
  // the matching table bucket in FIFO order.
  void heap_push(std::int64_t when) {
    std::size_t i = heap_.size();
    heap_.push_back(when);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (when >= heap_[parent]) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = when;
  }

  void heap_pop() {  // pre: !heap_.empty(); top is heap_[0]
    const std::int64_t last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t c = (i << 2) + 1;
        if (c >= n) break;
        std::size_t m = c;
        const std::size_t cend = c + 4 < n ? c + 4 : n;
        for (std::size_t k = c + 1; k < cend; ++k) {
          if (heap_[k] < heap_[m]) m = k;
        }
        if (heap_[m] >= last) break;
        heap_[i] = heap_[m];
        i = m;
      }
      heap_[i] = last;
    }
  }

  // Timestamp → FIFO chain of the nodes due then: an OpenMap (linear
  // probing, power-of-two capacity, backward-shift deletion) in flat arena
  // storage, no per-bucket allocation.
  struct Chain {
    TimerNode* head = nullptr;
    TimerNode* tail = nullptr;
  };
  static constexpr std::int64_t kNoBucket =
      std::numeric_limits<std::int64_t>::min();
  struct CalendarTraits {
    static std::int64_t empty() { return kNoBucket; }
    static std::size_t hash(std::int64_t when) {
      return mix_hash(static_cast<std::uint64_t>(when));
    }
  };
  using Calendar = OpenMap<std::int64_t, Chain, CalendarTraits,
                           mem::ArenaAllocator<std::byte>>;

  // Append `node` to the bucket for `when`, creating it (and pushing the
  // new distinct timestamp onto the heap) if absent. The last-bucket memo
  // skips the hash probe for the common burst pattern of many schedules
  // onto one instant (a NIC fanning a message's fragments out, a resource
  // waking all waiters). The memo self-validates by re-checking the slot's
  // timestamp — a timestamp names at most one bucket, so a slot that still
  // holds `when` *is* the bucket, however backward-shift deletion has
  // rearranged its neighbours. Only try_emplace can move the slot array
  // (growth), and it re-points the memo.
  void push_future(std::int64_t when, TimerNode* node) {
    node->next = nullptr;
    if (when == memo_when_ && memo_->key == when) {
      memo_->value.tail->next = node;
      memo_->value.tail = node;
      return;
    }
    auto [b, created] = table_.try_emplace(when);
    if (created) {
      b->value = Chain{node, node};
      heap_push(when);
    } else {
      b->value.tail->next = node;
      b->value.tail = node;
    }
    memo_when_ = when;
    memo_ = b;
  }

  // Detach and return the FIFO chain for `when`, erasing its bucket.
  TimerNode* take_bucket(std::int64_t when) {
    Calendar::Slot* b = table_.find(when);
    TimerNode* head = b->value.head;
    table_.erase(b);
    return head;
  }

  // --- node pool --------------------------------------------------------
  static constexpr std::size_t kSlabNodes = 512;

  TimerNode* alloc_node() {
    if (!free_nodes_) grow_pool();
    TimerNode* n = free_nodes_;
    free_nodes_ = n->next;
    n->next = nullptr;
    return n;
  }
  void recycle(TimerNode* n) {
    n->coro = {};
    n->fn.reset();
    n->cancelled = false;
    n->next = free_nodes_;
    free_nodes_ = n;
  }
  void grow_pool();

  // --- current-tick ring ------------------------------------------------
  bool ring_empty() const { return ring_head_ == ring_tail_; }
  void ring_push(TimerNode* n) {
    if (ring_tail_ - ring_head_ == ring_.size()) grow_ring();
    ring_[ring_tail_ & ring_mask_] = n;
    ++ring_tail_;
  }
  TimerNode* ring_pop() {
    TimerNode* n = ring_[ring_head_ & ring_mask_];
    ++ring_head_;
    return n;
  }
  void grow_ring();

  TimerNode* enqueue(Duration after, TimerNode* node) {
    ORDMA_CHECK(after.ns >= 0);
    if (after.ns == 0) {
      ring_push(node);
    } else {
      push_future(now_.ns + after.ns, node);
    }
    return node;
  }

  void fire(TimerNode* node);
  void reap_finished();

  // Advance the clock to `to`, invoking the sampling hook at every grid
  // boundary crossed (see set_sampling_hook for the ordering contract).
  void advance_clock(std::int64_t to) {
    if (sample_fn_) {
      while (next_sample_ns_ <= to) {
        now_.ns = next_sample_ns_;
        next_sample_ns_ += sample_interval_ns_;
        sample_fn_(sample_ctx_);
      }
    }
    now_.ns = to;
  }

  // All engine-internal bulk storage (timer slabs, calendar heap, bucket
  // table, ring) draws from one arena: the thread's installed per-run
  // arena when a harness put one up (mem::ScopedSimArena), else a private
  // fallback so a bare Engine behaves identically. Resolved exactly once
  // here — never a TLS lookup on the hot path. Declaration order matters:
  // the vectors below are constructed with allocators over arena_.
  template <typename T>
  using ArenaVec = std::vector<T, mem::ArenaAllocator<T>>;

  std::unique_ptr<mem::Arena> owned_arena_;  // set iff no installed arena
  mem::Arena* arena_;

  SimTime now_{};
  ArenaVec<std::int64_t> heap_;  // distinct future timestamps
  Calendar table_;                // timestamp → FIFO chain
  // Last bucket appended to (see push_future). kNoBucket = no memo.
  std::int64_t memo_when_ = kNoBucket;
  Calendar::Slot* memo_ = nullptr;
  // Remainder of the bucket being drained at the current instant. Nothing
  // can be appended to it (delays are strictly positive), so it lives
  // outside the table.
  TimerNode* cur_head_ = nullptr;
  ArenaVec<TimerNode*> ring_;  // power-of-two circular buffer
  std::size_t ring_mask_ = 0;
  std::size_t ring_head_ = 0;  // monotonically increasing; masked on access
  std::size_t ring_tail_ = 0;

  // Slabs (arena memory, placement-newed) own every node for the engine's
  // lifetime; fired nodes are recycled through free_nodes_ instead of
  // delete. ~Engine destroys the nodes explicitly — a pending InlineFn may
  // hold non-trivial captures — before the arena reclaims the bytes.
  std::vector<TimerNode*> slabs_;
  TimerNode* free_nodes_ = nullptr;

  // Periodic sampling hook (cold: only the run loop's time advance reads
  // it, and only when armed).
  std::int64_t sample_interval_ns_ = 0;
  std::int64_t next_sample_ns_ = 0;
  void* sample_ctx_ = nullptr;
  SampleFn sample_fn_ = nullptr;

  // Detached process bookkeeping -----------------------------------------
  struct ProcessState {
    Task<void> task;  // owns the coroutine frame
    bool finished = false;
  };
  std::uint64_t next_pid_ = 1;
  PageTable<ProcessState> processes_;  // by pid; ~Engine: newest first
  std::vector<std::uint64_t> reap_list_;

  // Wrapper coroutine that runs a task to completion and reports back.
  Task<void> run_process(std::uint64_t pid, Task<void> body);
};

}  // namespace ordma::sim
