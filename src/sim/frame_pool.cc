#include "sim/frame_pool.h"

#include <new>

namespace ordma::sim {

namespace {

constexpr std::align_val_t kChunkAlign{FramePool::kGranule};

// Releases the thread's chunks when the thread exits. A frame still live
// then (one the thread leaked) keeps every chunk where it is.
struct Reaper {
  bool armed = false;
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    detail::FrameLists& p = detail::t_frames;
    if (p.live != 0) return;
    while (p.chunks != nullptr) {
      void* chunk = p.chunks;
#if defined(__SANITIZE_ADDRESS__)
      ASAN_UNPOISON_MEMORY_REGION(chunk, FramePool::kChunkBytes);
#endif
      p.chunks = *static_cast<void**>(chunk);
      ::operator delete(chunk, kChunkAlign);
    }
    p = detail::FrameLists{};
  }
};

thread_local Reaper t_reaper;

}  // namespace

void* FramePool::carve(std::size_t c) {
  detail::FrameLists& p = detail::t_frames;
  const std::size_t bytes = (c + 1) * kGranule;
  if (p.bump == nullptr ||
      static_cast<std::size_t>(p.bump_end - p.bump) < bytes) {
    t_reaper.armed = true;  // registers the thread-exit release
    auto* chunk = static_cast<std::byte*>(
        ::operator new(kChunkBytes, kChunkAlign));
    *reinterpret_cast<void**>(chunk) = p.chunks;
    p.chunks = chunk;
    ++p.chunk_count;
    // The first granule holds the chunk link; frames follow it.
    p.bump = chunk + kGranule;
    p.bump_end = chunk + kChunkBytes;
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(p.bump, p.bump_end - p.bump);
#endif
  }
  std::byte* frame = p.bump;
  p.bump += bytes;
  set_idle(frame, c, false);
  ++p.live;
  return frame;
}

void* FramePool::heap_allocate(std::size_t n) {
  ++detail::t_frames.heap_live;
  return ::operator new(n);
}

void FramePool::heap_deallocate(void* frame) noexcept {
  --detail::t_frames.heap_live;
  ::operator delete(frame);
}

}  // namespace ordma::sim
