#include "nic/tpt.h"

namespace ordma::nic {

void Tpt::install(const Segment& seg) {
  ORDMA_CHECK(mem::page_offset(seg.nic_va) == 0);
  ORDMA_CHECK(mem::page_offset(seg.host_va) == 0);
  ORDMA_CHECK_MSG(segments_.try_emplace(seg.id, seg).second,
                  "duplicate segment id in TPT");
  const auto pages = (seg.len + mem::kPageSize - 1) / mem::kPageSize;
  for (std::uint64_t i = 0; i < pages; ++i) {
    *page_to_seg_.try_emplace(mem::page_of(seg.nic_va) + i).first = seg.id;
  }
}

std::optional<Segment> Tpt::remove(std::uint64_t seg_id) {
  const Segment* found = segments_.find(seg_id);
  if (found == nullptr) return std::nullopt;
  Segment seg = *found;
  const auto pages = (seg.len + mem::kPageSize - 1) / mem::kPageSize;
  for (std::uint64_t i = 0; i < pages; ++i) {
    page_to_seg_.erase(mem::page_of(seg.nic_va) + i);
  }
  segments_.erase(seg_id);
  return seg;
}

const Segment* Tpt::find_segment(std::uint64_t seg_id) const {
  return segments_.find(seg_id);
}

Segment* Tpt::find_segment_mutable(std::uint64_t seg_id) {
  return segments_.find(seg_id);
}

const Segment* Tpt::segment_of_page(mem::Vpn nic_vpn) const {
  const std::uint64_t* seg_id = page_to_seg_.find(nic_vpn);
  return seg_id == nullptr ? nullptr : find_segment(*seg_id);
}

NicTlb::~NicTlb() {
  while (lru_.pop_front() != nullptr) {
  }
}

NicTlb::Entry* NicTlb::lookup(mem::Vpn nic_vpn) {
  Entry* e = map_.find(nic_vpn);
  if (e == nullptr) return nullptr;
  lru_.touch(e);
  ++hits_;
  return e;
}

std::optional<NicTlb::Entry> NicTlb::insert(const Entry& e) {
  ORDMA_CHECK_MSG(map_.find(e.nic_vpn) == nullptr,
                  "TLB insert over existing entry");
  std::optional<Entry> evicted;
  if (map_.size() >= capacity_) {
    Entry* victim = lru_.pop_front();
    ORDMA_CHECK(victim);
    evicted = *victim;
    map_.erase(victim->nic_vpn);
  }
  // Copying an Entry never copies list membership (ListNode), so the new
  // entry starts unlinked.
  Entry* owned = map_.try_emplace(e.nic_vpn, e).first;
  lru_.push_back(owned);
  return evicted;
}

std::vector<NicTlb::Entry> NicTlb::invalidate_segment(const Segment& seg) {
  std::vector<Entry> out;
  const mem::Vpn first = mem::page_of(seg.nic_va);
  const auto pages = (seg.len + mem::kPageSize - 1) / mem::kPageSize;
  for (mem::Vpn vpn = first; vpn < first + pages; ++vpn) {
    Entry* e = map_.find(vpn);
    if (e == nullptr || e->seg_id != seg.id) continue;
    out.push_back(*e);
    lru_.erase(e);
    map_.erase(vpn);
  }
  return out;
}

}  // namespace ordma::nic
