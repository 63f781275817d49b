#include "cache/client_cache.h"

namespace ordma::cache {

ClientCache::ClientCache(host::Host& host, Config cfg)
    : host_(host),
      cfg_(cfg),
      data_policy_(make_policy("lru", cfg.data_blocks)),
      hdr_policy_(make_policy(cfg.ref_policy, cfg.max_headers)) {
  ORDMA_CHECK(cfg_.max_headers >= cfg_.data_blocks);
  slab_ = host_.map_new(host_.user_as(), slab_len());
  free_slots_.reserve(cfg_.data_blocks);
  for (int i = static_cast<int>(cfg_.data_blocks) - 1; i >= 0; --i) {
    free_slots_.push_back(i);
  }
}

ClientCache::Header* ClientCache::find(BlockKey key) {
  auto* s = map_.find(key);
  if (s == nullptr) {
    ++data_misses_;
    return nullptr;
  }
  Header& h = *s->value;
  hdr_policy_->touch(&h.hdr_node);
  if (h.has_data()) {
    ++data_hits_;
    data_policy_->touch(&h.data_node);
  } else {
    ++data_misses_;
  }
  return &h;
}

void ClientCache::evict_header() {
  Header* victim_ptr = nullptr;
  for (std::size_t tries = 0; tries <= map_.size(); ++tries) {
    auto* node = static_cast<Header::Node*>(hdr_policy_->victim());
    ORDMA_CHECK_MSG(node, "header table full of unevictable headers");
    if (node->owner->pin == 0) {
      victim_ptr = node->owner;
      break;
    }
    hdr_policy_->touch(node);
  }
  ORDMA_CHECK_MSG(victim_ptr, "all headers pinned");
  Header& victim = *victim_ptr;
  detach_data(victim);
  if (victim.ref) --refs_held_;
  hdr_policy_->erase(&victim.hdr_node);
  map_.erase(victim.key);
}

ClientCache::Header& ClientCache::ensure(BlockKey key) {
  if (auto* s = map_.find(key)) {
    hdr_policy_->touch(&s->value->hdr_node);
    return *s->value;
  }
  if (map_.size() >= cfg_.max_headers) evict_header();
  auto h = std::make_unique<Header>();
  h->key = key;
  h->data_node.owner = h.get();
  h->hdr_node.owner = h.get();
  // Stable identity for ghost-list policies (ARC history outlives headers).
  h->data_node.key = h->hdr_node.key = BlockKeyHash{}(key);
  hdr_policy_->insert(&h->hdr_node);
  Header& ref = *h;
  map_.try_emplace(key).first->value = std::move(h);
  return ref;
}

void ClientCache::detach_data(Header& h) {
  if (!h.has_data()) return;
  data_policy_->erase(&h.data_node);
  free_slots_.push_back(h.data_slot);
  h.data_slot = -1;
  h.valid = 0;
  h.version = 0;  // version tags the data copy, not the header
}

mem::Vaddr ClientCache::attach_data(Header& h, Bytes valid_len) {
  ORDMA_CHECK(valid_len <= cfg_.block_size);
  if (!h.has_data()) {
    if (free_slots_.empty()) {
      // Steal the coldest unpinned data block; its header survives, keeping
      // any remote ref ("references are allowed to live in empty headers").
      // Pinned (in-flight) victims are rotated to MRU and skipped.
      Header* victim = nullptr;
      for (std::size_t tries = 0; tries <= cfg_.data_blocks; ++tries) {
        auto* node = static_cast<Header::Node*>(data_policy_->victim());
        ORDMA_CHECK_MSG(node, "no evictable data block");
        if (node->owner->pin == 0) {
          victim = node->owner;
          break;
        }
        data_policy_->touch(node);
      }
      ORDMA_CHECK_MSG(victim, "all data blocks pinned");
      detach_data(*victim);
    }
    h.data_slot = free_slots_.back();
    free_slots_.pop_back();
    data_policy_->insert(&h.data_node);
  } else {
    data_policy_->touch(&h.data_node);
  }
  h.valid = valid_len;
  return block_va(h);
}

mem::Vaddr ClientCache::block_va(const Header& h) const {
  ORDMA_CHECK(h.has_data());
  return slab_ + static_cast<Bytes>(h.data_slot) * cfg_.block_size;
}

void ClientCache::write_block(Header& h, std::span<const std::byte> data) {
  ORDMA_CHECK(data.size() <= cfg_.block_size);
  ORDMA_CHECK(host_.user_as().write(block_va(h), data).ok());
}

void ClientCache::read_block(const Header& h,
                             std::span<std::byte> out) const {
  ORDMA_CHECK(out.size() <= cfg_.block_size);
  ORDMA_CHECK(host_.user_as().read(block_va(h), out).ok());
}

void ClientCache::drop_file(std::uint64_t file) {
  std::vector<Header*> victims;
  for (const auto& s : map_) {
    if (s.key.file == file) victims.push_back(s.value.get());
  }
  for (Header* h : victims) {
    detach_data(*h);
    if (h->ref) --refs_held_;
    hdr_policy_->erase(&h->hdr_node);
    map_.erase(h->key);
  }
}

}  // namespace ordma::cache
