// Virtual address spaces and frame allocation.
//
// Three roles in the reproduction:
//  * kernel/user address spaces on each host (buffer cache pages, user
//    buffers that must be pinned for DMA — §3 of the paper);
//  * the ODAFS server's private 64-bit NIC-only address space, where file
//    cache blocks are mapped "for long periods of time" (§4.2.1);
//  * the source of translations loaded into the NIC TPT (§2.1).
//
// Pages carry residency, protection, pin and lock state. Pinned pages cannot
// be reclaimed; locked pages fault ORDMA accesses (recoverable, §4).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/page_table.h"
#include "common/result.h"
#include "mem/physical_memory.h"

namespace ordma::mem {

struct PageEntry {
  Pfn pfn = 0;
  bool present = false;
  bool writable = true;
  bool locked = false;  // transiently locked by the host (e.g. during I/O)
  int pin_count = 0;    // pinned for DMA / NIC TLB residency

  bool pinned() const { return pin_count > 0; }
};

// Free-frame pool shared by everything on one host. Keeps the "minimum free
// page threshold" the paper's OS must maintain for NIC TLB pinning (§4.1).
class FrameAllocator {
 public:
  FrameAllocator(Pfn first_frame, std::uint64_t count)
      : next_(first_frame), end_(first_frame + count) {}

  Result<Pfn> allocate() {
    if (!free_list_.empty()) {
      const Pfn f = free_list_.back();
      free_list_.pop_back();
      return f;
    }
    if (next_ < end_) return next_++;
    return Errc::no_space;
  }

  void free(Pfn f) { free_list_.push_back(f); }

  std::uint64_t free_frames() const {
    return (end_ - next_) + free_list_.size();
  }

 private:
  Pfn next_;
  Pfn end_;
  std::vector<Pfn> free_list_;
};

class AddressSpace {
 public:
  explicit AddressSpace(PhysicalMemory& phys) : phys_(phys) {}
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // --- mapping ----------------------------------------------------------
  void map(Vpn vpn, Pfn pfn, bool writable = true);
  // Unmap; returns the frame that was mapped (caller returns it to the
  // allocator if appropriate). Fails a check if pinned.
  Pfn unmap(Vpn vpn);
  bool is_mapped(Vpn vpn) const { return table_.find(vpn) != nullptr; }

  const PageEntry* lookup(Vpn vpn) const;
  PageEntry* lookup_mutable(Vpn vpn);

  // --- page state ---------------------------------------------------------
  void pin(Vpn vpn);
  void unpin(Vpn vpn);
  void lock(Vpn vpn);
  void unlock(Vpn vpn);
  void protect(Vpn vpn, bool writable);

  // --- translation & data access ------------------------------------------
  // Translate one byte address; respects presence and (for writes)
  // protection. The NIC and CPU both go through this.
  Result<Paddr> translate(Vaddr va, bool for_write) const;

  // Copy data in/out through the page table (may span pages). Fails if any
  // page is missing/protected; partial progress is not rolled back (matches
  // real memcpy-through-VM semantics; callers pre-validate).
  Status write(Vaddr va, std::span<const std::byte> data);
  Status read(Vaddr va, std::span<std::byte> out) const;

  // Pin/unpin a byte range (registration helper). Fails (without side
  // effects) if any page is unmapped.
  Status pin_range(Vaddr va, Bytes len);
  void unpin_range(Vaddr va, Bytes len);

  std::size_t mapped_pages() const { return table_.size(); }
  // Page-table leaves held (common/page_table.h): bounded by the live
  // mappings, however far the mapped VAs have advanced.
  std::size_t table_leaves() const { return table_.leaves(); }
  PhysicalMemory& phys() { return phys_; }
  const PhysicalMemory& phys() const { return phys_; }

 private:
  PhysicalMemory& phys_;
  PageTable<PageEntry> table_;  // by vpn
};

// --- moving and checksumming bytes in place ---------------------------------
// The one way to move bytes between address spaces (or within one) and to
// checksum bytes where they lie. Both walk the page tables directly — one
// translation per page on each side — and use no intermediate buffer, so a
// data path built on them never allocates. Failure matches
// AddressSpace::read/write: an unmapped source page, or an unmapped or
// write-protected destination page, fails with access_fault, and the bytes
// before that page have already moved.

// Copy `len` bytes from `src` at `src_va` to `dst` at `dst_va`. The two
// ranges must not overlap in physical memory.
Status copy(const AddressSpace& src, Vaddr src_va, AddressSpace& dst,
            Vaddr dst_va, Bytes len);

// Advance the CRC-32 register `state` (common/crc32.h) over `len` bytes at
// `va`: the value crc32_update gives over what AddressSpace::read returns.
Result<std::uint32_t> checksum(const AddressSpace& as, Vaddr va, Bytes len,
                               std::uint32_t state);

// A registered memory region: the product of "registering and pinning
// user-level buffers" (§3). RAII: deregistration unpins.
class Registration {
 public:
  Registration(AddressSpace& as, Vaddr va, Bytes len)
      : as_(&as), va_(va), len_(len) {
    ORDMA_CHECK(as.pin_range(va, len).ok());
  }
  Registration(Registration&& o) noexcept
      : as_(std::exchange(o.as_, nullptr)), va_(o.va_), len_(o.len_) {}
  Registration& operator=(Registration&& o) noexcept {
    if (this != &o) {
      reset();
      as_ = std::exchange(o.as_, nullptr);
      va_ = o.va_;
      len_ = o.len_;
    }
    return *this;
  }
  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;
  ~Registration() { reset(); }

  Vaddr va() const { return va_; }
  Bytes len() const { return len_; }

 private:
  void reset() {
    if (as_) {
      as_->unpin_range(va_, len_);
      as_ = nullptr;
    }
  }
  AddressSpace* as_;
  Vaddr va_ = 0;
  Bytes len_ = 0;
};

}  // namespace ordma::mem
