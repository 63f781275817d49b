// Translation and Protection Table (TPT) and the on-NIC TLB (§2.1, §4.1).
//
// The TPT is the host-memory-resident table mapping pages of the NIC's
// private virtual address space to (address space, host page) for every
// exported segment, with the segment's capability generation. The NIC
// caches entries in a bounded TLB; pages with translations loaded in the
// TLB are treated as pinned and locked (the paper's synchronisation choice),
// so the host pins on TLB load and unpins on eviction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/intrusive_list.h"
#include "common/page_table.h"
#include "common/result.h"
#include "crypto/capability.h"
#include "mem/address_space.h"

namespace ordma::nic {

struct Segment {
  std::uint64_t id = 0;
  mem::AddressSpace* as = nullptr;
  mem::Vaddr host_va = 0;  // base in the exporting address space
  mem::Vaddr nic_va = 0;   // base in the NIC's private 64-bit space
  Bytes len = 0;
  crypto::SegPerm perm = crypto::SegPerm::read;
  std::uint32_t generation = 0;
  bool pinned_on_export = false;  // classic registration vs lazy ODAFS export
};

class Tpt {
 public:
  // Install a segment's page translations. Pages must be page-aligned.
  void install(const Segment& seg);
  // Remove a segment; returns it (for unpinning bookkeeping by the caller).
  std::optional<Segment> remove(std::uint64_t seg_id);

  const Segment* find_segment(std::uint64_t seg_id) const;
  Segment* find_segment_mutable(std::uint64_t seg_id);

  // Translate one NIC-virtual page to its owning segment; nullptr if the
  // page is not covered by any valid segment.
  const Segment* segment_of_page(mem::Vpn nic_vpn) const;

  std::size_t num_segments() const { return segments_.size(); }
  // Table leaves held (common/page_table.h): bounded by the live
  // segments, though segment ids and NIC VAs are never reused.
  std::size_t table_leaves() const {
    return segments_.leaves() + page_to_seg_.leaves();
  }

 private:
  PageTable<Segment> segments_;          // by segment id
  PageTable<std::uint64_t> page_to_seg_;  // NIC vpn → segment id
};

// What a TLB entry maps a NIC page to, as a plain value an ORDMA access
// keeps while it waits (the entry itself may be evicted meanwhile).
struct Translation {
  mem::Pfn pfn = 0;
  mem::AddressSpace* as = nullptr;
  mem::Vpn host_vpn = 0;
};

// Bounded TLB with LRU replacement. Entries cache the physical frame so the
// NIC can DMA without touching host page tables; insertion pins the host
// page, eviction unpins it (done by the Nic, which owns the pin calls).
class NicTlb {
 public:
  struct Entry : ListNode {
    mem::Vpn nic_vpn = 0;
    mem::Pfn pfn = 0;
    std::uint64_t seg_id = 0;
    mem::AddressSpace* as = nullptr;
    mem::Vpn host_vpn = 0;

    Translation translation() const { return {pfn, as, host_vpn}; }
  };

  explicit NicTlb(std::size_t capacity) : capacity_(capacity) {}
  ~NicTlb();
  NicTlb(const NicTlb&) = delete;
  NicTlb& operator=(const NicTlb&) = delete;

  // Lookup; touches LRU on hit.
  Entry* lookup(mem::Vpn nic_vpn);

  // Insert a new entry; if at capacity, the LRU entry is evicted and
  // returned so the caller can unpin its page.
  std::optional<Entry> insert(const Entry& e);

  // Drop all entries belonging to a segment; returns them for unpinning.
  // Looks up only the segment's own pages, without touching LRU order or
  // hit counts.
  std::vector<Entry> invalidate_segment(const Segment& seg);

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t table_leaves() const { return map_.leaves(); }

  // Stats for the TLB ablation bench.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void count_miss() { ++misses_; }

 private:
  std::size_t capacity_;
  PageTable<Entry> map_;      // by NIC vpn; entries never move
  IntrusiveList<Entry> lru_;  // front = LRU, back = MRU
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ordma::nic
