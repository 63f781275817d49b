// Simulated host physical memory holding real bytes.
//
// Frames are 4 KiB and allocated lazily on first write, so a "2 GB" host
// costs only what the workload actually touches. Every DMA, memcpy and file
// block in the simulation reads and writes these bytes for real — data
// integrity is testable end-to-end.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/assert.h"
#include "common/page_table.h"
#include "common/units.h"

namespace ordma::mem {

using Paddr = std::uint64_t;  // physical byte address
using Vaddr = std::uint64_t;  // virtual byte address
using Pfn = std::uint64_t;    // physical frame number
using Vpn = std::uint64_t;    // virtual page number

inline constexpr Bytes kPageSize = 4096;
inline constexpr std::uint64_t kPageShift = 12;

constexpr Pfn frame_of(Paddr a) { return a >> kPageShift; }
constexpr Vpn page_of(Vaddr a) { return a >> kPageShift; }
constexpr std::uint64_t page_offset(std::uint64_t a) {
  return a & (kPageSize - 1);
}
constexpr Paddr frame_base(Pfn f) { return f << kPageShift; }

class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::uint64_t num_frames)
      : num_frames_(num_frames) {}
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  std::uint64_t num_frames() const { return num_frames_; }
  Bytes size() const { return num_frames_ * kPageSize; }

  // Byte-granularity access; may cross frame boundaries. Reads of frames
  // never written return zeroes (fresh memory).
  void write(Paddr addr, std::span<const std::byte> data);
  void read(Paddr addr, std::span<std::byte> out) const;

  // Direct frame access for page-sized operations (DMA fast path).
  std::span<std::byte> frame_data(Pfn f);
  std::span<const std::byte> frame_data(Pfn f) const;
  // A frame's bytes if it was ever written, else nullptr (it reads as
  // zeroes); never backs the frame with host RAM.
  const std::byte* frame_if_touched(Pfn f) const;

  // Number of frames actually backed by host RAM (observability).
  std::size_t frames_touched() const { return frames_.size(); }

 private:
  using Frame = std::array<std::byte, kPageSize>;
  Frame& materialise(Pfn f) const;

  std::uint64_t num_frames_;
  mutable PageTable<std::unique_ptr<Frame>> frames_;  // by pfn
};

}  // namespace ordma::mem
