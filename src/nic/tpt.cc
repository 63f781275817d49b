#include "nic/tpt.h"

namespace ordma::nic {

void Tpt::install(const Segment& seg) {
  ORDMA_CHECK(mem::page_offset(seg.nic_va) == 0);
  ORDMA_CHECK(mem::page_offset(seg.host_va) == 0);
  auto [it, inserted] = segments_.emplace(seg.id, seg);
  ORDMA_CHECK_MSG(inserted, "duplicate segment id in TPT");
  const auto pages = (seg.len + mem::kPageSize - 1) / mem::kPageSize;
  for (std::uint64_t i = 0; i < pages; ++i) {
    page_to_seg_[mem::page_of(seg.nic_va) + i] = seg.id;
  }
}

std::optional<Segment> Tpt::remove(std::uint64_t seg_id) {
  auto it = segments_.find(seg_id);
  if (it == segments_.end()) return std::nullopt;
  Segment seg = it->second;
  const auto pages = (seg.len + mem::kPageSize - 1) / mem::kPageSize;
  for (std::uint64_t i = 0; i < pages; ++i) {
    page_to_seg_.erase(mem::page_of(seg.nic_va) + i);
  }
  segments_.erase(it);
  return seg;
}

const Segment* Tpt::find_segment(std::uint64_t seg_id) const {
  auto it = segments_.find(seg_id);
  return it == segments_.end() ? nullptr : &it->second;
}

Segment* Tpt::find_segment_mutable(std::uint64_t seg_id) {
  auto it = segments_.find(seg_id);
  return it == segments_.end() ? nullptr : &it->second;
}

const Segment* Tpt::segment_of_page(mem::Vpn nic_vpn) const {
  auto it = page_to_seg_.find(nic_vpn);
  if (it == page_to_seg_.end()) return nullptr;
  return find_segment(it->second);
}

NicTlb::~NicTlb() {
  while (auto* e = lru_.pop_front()) {
    map_.erase(e->nic_vpn);
    delete e;
  }
}

NicTlb::Entry* NicTlb::lookup(mem::Vpn nic_vpn) {
  auto it = map_.find(nic_vpn);
  if (it == map_.end()) return nullptr;
  lru_.touch(it->second);
  ++hits_;
  return it->second;
}

std::optional<NicTlb::Entry> NicTlb::insert(const Entry& e) {
  ORDMA_CHECK_MSG(map_.find(e.nic_vpn) == map_.end(),
                  "TLB insert over existing entry");
  std::optional<Entry> evicted;
  if (map_.size() >= capacity_) {
    Entry* victim = lru_.pop_front();
    ORDMA_CHECK(victim);
    map_.erase(victim->nic_vpn);
    evicted = *victim;
    delete victim;
  }
  auto* owned = new Entry(e);
  // Copying an Entry copies the (unlinked) ListNode base; make sure the new
  // node starts unlinked regardless of source state.
  owned->prev = owned->next = nullptr;
  map_[owned->nic_vpn] = owned;
  lru_.push_back(owned);
  return evicted;
}

std::vector<NicTlb::Entry> NicTlb::invalidate_segment(const Segment& seg) {
  std::vector<Entry> out;
  const mem::Vpn first = mem::page_of(seg.nic_va);
  const auto pages = (seg.len + mem::kPageSize - 1) / mem::kPageSize;
  for (mem::Vpn vpn = first; vpn < first + pages; ++vpn) {
    auto it = map_.find(vpn);
    if (it == map_.end() || it->second->seg_id != seg.id) continue;
    Entry* e = it->second;
    out.push_back(*e);
    lru_.erase(e);
    map_.erase(it);
    delete e;
  }
  return out;
}

}  // namespace ordma::nic
