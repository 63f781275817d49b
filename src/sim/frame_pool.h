// Per-thread pool for coroutine frames.
//
// Every sim::Task call creates a frame and destroying the Task frees it: a
// 4 KB ODAFS read creates and destroys about thirty. The frames come in a
// few sizes, so Task's promise draws them from this pool instead of the
// global heap. Sizes are rounded up to a 64-byte class; each class keeps a
// LIFO list of idle frames, and a class with none carves a new frame out
// of a 64 KB chunk. A frame larger than the biggest class goes to the heap
// and back.
//
// The pool is thread-local, as the Buffer pool is (net/packet.h): a
// simulation runs on one thread, so a frame is freed on the thread that
// made it. When a thread exits with none of its frames live, its chunks go
// back to the heap, so worker threads (run/runner.h) leave nothing behind.
//
// Under AddressSanitizer an idle frame is poisoned, so touching a destroyed
// coroutine's frame reports use-after-poison instead of reading whichever
// coroutine the frame holds next.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace ordma::sim {

namespace detail {

inline constexpr std::size_t kFrameGranule = 64;
inline constexpr std::size_t kFrameClasses = 32;

struct IdleFrame {
  IdleFrame* next;
};

// One thread's pool. Constant-initialised and trivially destructible, so
// the hot path reads it with no TLS guard; frame_pool.cc releases the
// chunks at thread exit.
struct FrameLists {
  IdleFrame* idle[kFrameClasses] = {};
  std::byte* bump = nullptr;
  std::byte* bump_end = nullptr;
  void* chunks = nullptr;  // chunk list, linked through each chunk's head
  std::size_t chunk_count = 0;
  std::size_t live = 0;       // pooled frames in use
  std::size_t heap_live = 0;  // oversized frames in use
};

inline thread_local constinit FrameLists t_frames{};

}  // namespace detail

class FramePool {
 public:
  static constexpr std::size_t kGranule = detail::kFrameGranule;
  static constexpr std::size_t kClasses = detail::kFrameClasses;
  // Frames up to this size are pooled; larger ones use the heap.
  static constexpr std::size_t kMaxPooled = kGranule * kClasses;
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  static void* allocate(std::size_t n) {
    if (n > kMaxPooled) return heap_allocate(n);
    detail::FrameLists& p = detail::t_frames;
    const std::size_t c = (n - 1) / kGranule;
    detail::IdleFrame* f = p.idle[c];
    if (f == nullptr) return carve(c);
    set_idle(f, c, false);
    p.idle[c] = f->next;
    ++p.live;
    return f;
  }

  static void deallocate(void* frame, std::size_t n) noexcept {
    if (n > kMaxPooled) return heap_deallocate(frame);
    detail::FrameLists& p = detail::t_frames;
    const std::size_t c = (n - 1) / kGranule;
    auto* f = static_cast<detail::IdleFrame*>(frame);
    f->next = p.idle[c];
    p.idle[c] = f;
    --p.live;
    set_idle(f, c, true);
  }

  // This thread's pooled frames in use, oversized frames in use, and
  // chunks held.
  struct Stats {
    std::size_t live = 0;
    std::size_t heap_live = 0;
    std::size_t chunks = 0;
  };
  static Stats stats() {
    const detail::FrameLists& p = detail::t_frames;
    return {p.live, p.heap_live, p.chunk_count};
  }

 private:
  static void set_idle(void* frame, std::size_t c, bool idle) {
#if defined(__SANITIZE_ADDRESS__)
    if (idle) {
      ASAN_POISON_MEMORY_REGION(frame, (c + 1) * kGranule);
    } else {
      ASAN_UNPOISON_MEMORY_REGION(frame, (c + 1) * kGranule);
    }
#else
    (void)frame;
    (void)c;
    (void)idle;
#endif
  }

  static void* carve(std::size_t c);
  static void* heap_allocate(std::size_t n);
  static void heap_deallocate(void* frame) noexcept;
};

}  // namespace ordma::sim
