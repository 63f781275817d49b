// The user-level client file cache (Addetia's DAFS client cache [1],
// §4.2.1): a fixed pool of data blocks plus "many more empty headers than
// data blocks". When a data block is reclaimed, its header lives on and can
// retain a remote memory reference to the server's copy — the ORDMA
// directory. Ideally the client has enough headers to map the entire server
// cache (the paper sizes it that way for the microbenchmarks).
//
// Also here: the open-delegation table (a delegation makes every subsequent
// open/close of the file local — §5.2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "cache/policy.h"
#include "common/open_map.h"
#include "common/units.h"
#include "crypto/capability.h"
#include "host/host.h"
#include "mem/physical_memory.h"

namespace ordma::cache {

struct BlockKey {
  std::uint64_t file = 0;
  std::uint64_t idx = 0;
  bool operator==(const BlockKey&) const = default;
};
struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const {
    return std::hash<std::uint64_t>()(k.file * 0x9E3779B97F4A7C15ull ^
                                      k.idx);
  }
};
// OpenMap traits (common/open_map.h). No block has index ~0 (its offset
// would not fit in 64 bits), so that key marks a free slot.
struct BlockKeyTraits {
  static BlockKey empty() { return {0, ~std::uint64_t{0}}; }
  static std::size_t hash(const BlockKey& k) {
    return mix_hash(k.file * 0x9E3779B97F4A7C15ull ^ k.idx);
  }
};
template <typename V>
using BlockMap = OpenMap<BlockKey, V, BlockKeyTraits>;

// A piggybacked reference to a block in the server's file cache (§4.2.1):
// where it lives in the server NIC's address space and the capability that
// authorises client-initiated ORDMA against it.
struct RemoteRef {
  std::uint64_t seg_id = 0;
  mem::Vaddr va = 0;
  Bytes len = 0;
  crypto::Capability cap;
};

class ClientCache {
 public:
  struct Config {
    std::size_t data_blocks = 256;
    Bytes block_size = KiB(4);
    std::size_t max_headers = 65536;
    // Replacement policy of the headers (the reference directory:
    // cache/policy.h make_policy). Data blocks are always replaced LRU.
    std::string ref_policy = "lru";
  };

  struct Header {
    BlockKey key;
    int data_slot = -1;          // -1: "empty" header (no cached data)
    Bytes valid = 0;             // bytes of data valid in the slot
    int pin = 0;                 // pinned blocks are not stolen
    std::optional<RemoteRef> ref;
    // Coherence bookkeeping (ORDMA write path): the server-block commit
    // version this data was fetched at (0 = untagged — always dropped by
    // an invalidation), and the dirty byte range of a write-back block.
    // Dirty blocks hold a pin (taken by mark_dirty, released by
    // clear_dirty) so cache pressure cannot steal unflushed data.
    std::uint64_t version = 0;
    // Commit version piggybacked with the ref (the newest version this
    // client has been told about for the block; tags ORDMA refills).
    std::uint64_t ref_version = 0;
    Bytes dirty_lo = 0;
    Bytes dirty_hi = 0;

    bool has_data() const { return data_slot >= 0; }
    bool dirty() const { return dirty_hi > dirty_lo; }

   private:
    friend class ClientCache;
    struct Node : PolicyNode {
      Header* owner = nullptr;
    };
    Node data_node;  // linked in data policy iff has_data()
    Node hdr_node;   // linked in header policy always
  };

  // Data blocks are carved out of the host's user address space as one
  // contiguous slab so the whole cache can be registered with the NIC once
  // and RDMA (direct reads, ORDMA) can land in cache blocks directly.
  ClientCache(host::Host& host, Config cfg);
  ClientCache(const ClientCache&) = delete;
  ClientCache& operator=(const ClientCache&) = delete;

  Bytes block_size() const { return cfg_.block_size; }
  std::size_t data_capacity() const { return cfg_.data_blocks; }
  mem::Vaddr slab_base() const { return slab_; }
  Bytes slab_len() const { return cfg_.data_blocks * cfg_.block_size; }

  // Lookup; counts a hit iff the header holds data. Touches policies.
  Header* find(BlockKey key);
  // Lookup without perturbing hit/miss counters or replacement state
  // (used by the invalidation handler, which is not an access).
  Header* peek(BlockKey key) {
    auto* s = map_.find(key);
    return s == nullptr ? nullptr : s->value.get();
  }
  // Lookup or create the header (possibly evicting a colder header).
  Header& ensure(BlockKey key);

  // Give `h` a data block (stealing the coldest data block if the pool is
  // full; the victim's header keeps its remote ref — it becomes "empty").
  // Returns the block's address in the client's user address space.
  mem::Vaddr attach_data(Header& h, Bytes valid_len);
  mem::Vaddr block_va(const Header& h) const;

  // Convenience byte access through the host address space.
  void write_block(Header& h, std::span<const std::byte> data);
  void read_block(const Header& h, std::span<std::byte> out) const;

  // Drop a file's blocks (close without delegation, invalidation).
  void drop_file(std::uint64_t file);

  // Drop just the data copy (server-initiated invalidation): the header —
  // and its remote ref — survive, so revalidation is one ORDMA, not an
  // RPC round trip. No-op on dirty or pinned-by-dirty blocks.
  void drop_data(Header& h) {
    ORDMA_CHECK(!h.dirty());
    detach_data(h);
    h.version = 0;
  }

  // Write-back dirty tracking. mark_dirty widens the dirty range and pins
  // the block on the clean→dirty edge; clear_dirty resets it and unpins.
  void mark_dirty(Header& h, Bytes lo, Bytes hi) {
    ORDMA_CHECK(h.has_data() && lo < hi && hi <= cfg_.block_size);
    if (!h.dirty()) {
      ++h.pin;
      ++dirty_blocks_;
      h.dirty_lo = lo;
      h.dirty_hi = hi;
    } else {
      h.dirty_lo = std::min(h.dirty_lo, lo);
      h.dirty_hi = std::max(h.dirty_hi, hi);
    }
  }
  void clear_dirty(Header& h) {
    if (!h.dirty()) return;
    ORDMA_CHECK(h.pin > 0 && dirty_blocks_ > 0);
    --h.pin;
    --dirty_blocks_;
    h.dirty_lo = h.dirty_hi = 0;
  }
  std::size_t dirty_blocks() const { return dirty_blocks_; }

  // Remote-reference bookkeeping (the ORDMA directory lives in headers).
  std::size_t refs_held() const { return refs_held_; }
  void set_ref(Header& h, const RemoteRef& ref) {
    if (!h.ref) ++refs_held_;
    h.ref = ref;
  }
  void clear_ref(Header& h) {
    if (h.ref) {
      --refs_held_;
      h.ref.reset();
    }
  }

  std::uint64_t data_hits() const { return data_hits_; }
  std::uint64_t data_misses() const { return data_misses_; }
  std::size_t headers() const { return map_.size(); }

 private:
  void evict_header();
  void detach_data(Header& h);

  host::Host& host_;
  Config cfg_;
  std::unique_ptr<ReplacementPolicy> data_policy_;
  std::unique_ptr<ReplacementPolicy> hdr_policy_;
  BlockMap<std::unique_ptr<Header>> map_;  // headers keep their address
  mem::Vaddr slab_ = 0;
  std::vector<int> free_slots_;
  std::size_t refs_held_ = 0;
  std::size_t dirty_blocks_ = 0;
  std::uint64_t data_hits_ = 0;
  std::uint64_t data_misses_ = 0;
};

class DelegationTable {
 public:
  bool has(std::uint64_t file) const { return files_.count(file) != 0; }
  void grant(std::uint64_t file) { files_.insert(file); }
  void drop(std::uint64_t file) { files_.erase(file); }
  std::size_t size() const { return files_.size(); }

 private:
  std::unordered_set<std::uint64_t> files_;
};

}  // namespace ordma::cache
