#include "mem/physical_memory.h"

#include <algorithm>
#include <cstring>

namespace ordma::mem {

PhysicalMemory::Frame& PhysicalMemory::materialise(Pfn f) const {
  ORDMA_CHECK_MSG(f < num_frames_, "physical frame out of range");
  auto& slot = *frames_.try_emplace(f).first;
  if (!slot) {
    slot = std::make_unique<Frame>();
    slot->fill(std::byte{0});
  }
  return *slot;
}

void PhysicalMemory::write(Paddr addr, std::span<const std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const Pfn f = frame_of(addr + done);
    const std::uint64_t off = page_offset(addr + done);
    const std::size_t chunk =
        std::min<std::size_t>(data.size() - done, kPageSize - off);
    Frame& frame = materialise(f);
    std::memcpy(frame.data() + off, data.data() + done, chunk);
    done += chunk;
  }
}

void PhysicalMemory::read(Paddr addr, std::span<std::byte> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const Pfn f = frame_of(addr + done);
    const std::uint64_t off = page_offset(addr + done);
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - done, kPageSize - off);
    ORDMA_CHECK_MSG(f < num_frames_, "physical frame out of range");
    const auto* frame = frames_.find(f);
    if (frame == nullptr) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      std::memcpy(out.data() + done, (*frame)->data() + off, chunk);
    }
    done += chunk;
  }
}

std::span<std::byte> PhysicalMemory::frame_data(Pfn f) {
  Frame& frame = materialise(f);
  return {frame.data(), frame.size()};
}

std::span<const std::byte> PhysicalMemory::frame_data(Pfn f) const {
  Frame& frame = materialise(f);
  return {frame.data(), frame.size()};
}

const std::byte* PhysicalMemory::frame_if_touched(Pfn f) const {
  ORDMA_CHECK_MSG(f < num_frames_, "physical frame out of range");
  const auto* frame = frames_.find(f);
  return frame == nullptr ? nullptr : (*frame)->data();
}

}  // namespace ordma::mem
