// Two-level table for keys the simulator hands out from counters.
//
// Physical frame numbers, virtual and NIC page numbers, segment ids, NIC
// op ids and engine process ids all come from counters, and most of them
// are never reused. Such keys cluster: the live ones sit in a few dense
// runs. PageTable indexes them the way a page table does. Key k lives in
// slot k % 512 of leaf k / 512; a leaf is 512 slots plus an occupancy
// bitmap, allocated when its first entry arrives and freed when its last
// one goes. So a table whose keys keep advancing (a VA that is never
// reused) stays as small as its live keys, and a lookup is a directory
// probe (skipped when the leaf is the one looked up last) and an index.
//
// The directory is an OpenMap from leaf number to leaf, so keys far apart
// cost one leaf each and nothing in between.
//
// Values sit at stable addresses: an entry never moves while it lives. It
// is destroyed by erase; since erasing a leaf's last entry frees the leaf,
// a pointer to an entry is good only until that entry is erased, and code
// that may lose the entry during a co_await looks it up again afterwards.
// clear() destroys entries in descending key order, which does not depend
// on where leaves live.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/open_map.h"

namespace ordma {

template <typename T>
class PageTable {
 public:
  static constexpr unsigned kLeafBits = 9;
  static constexpr std::size_t kLeafSlots = std::size_t{1} << kLeafBits;

  PageTable() = default;
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;
  ~PageTable() { clear(); }

  std::size_t size() const { return count_; }
  // Leaves currently allocated (what the table costs beyond its entries).
  std::size_t leaves() const { return dir_.size(); }

  T* find(std::uint64_t key) { return lookup(key); }
  const T* find(std::uint64_t key) const { return lookup(key); }

  // The entry for `key` and whether it was created; a created entry is
  // constructed from `args`.
  template <typename... Args>
  std::pair<T*, bool> try_emplace(std::uint64_t key, Args&&... args) {
    const std::uint64_t no = key >> kLeafBits;
    Leaf* leaf = leaf_of(no);
    if (leaf == nullptr) {
      leaf = new Leaf;
      dir_.try_emplace(no).first->value = leaf;
      memo_no_ = no;
      memo_leaf_ = leaf;
    }
    const std::size_t i = key & (kLeafSlots - 1);
    if (leaf->used(i)) return {leaf->at(i), false};
    T* v = ::new (static_cast<void*>(leaf->at(i)))
        T(std::forward<Args>(args)...);
    leaf->set_used(i, true);
    ++leaf->count;
    ++count_;
    return {v, true};
  }

  // Erase `key`'s entry. The value is moved out and destroyed only after
  // the table is consistent again, so its destructor may use the table.
  bool erase(std::uint64_t key) {
    const std::uint64_t no = key >> kLeafBits;
    Leaf* leaf = leaf_of(no);
    const std::size_t i = key & (kLeafSlots - 1);
    if (leaf == nullptr || !leaf->used(i)) return false;
    [[maybe_unused]] T victim = std::move(*leaf->at(i));
    leaf->at(i)->~T();
    leaf->set_used(i, false);
    --count_;
    if (--leaf->count == 0) release(no, leaf);
    return true;
  }

  // Destroy every entry, newest (highest) key first.
  void clear() {
    while (count_ > 0) {
      std::vector<std::uint64_t> nos = leaf_numbers();
      for (auto no = nos.rbegin(); no != nos.rend(); ++no) {
        for (std::size_t i = kLeafSlots; i-- > 0;) {
          erase((*no << kLeafBits) | i);
        }
      }
    }
  }

 private:
  struct Leaf {
    std::uint64_t bits[kLeafSlots / 64] = {};
    std::size_t count = 0;
    alignas(T) std::byte storage[kLeafSlots * sizeof(T)];

    bool used(std::size_t i) const { return (bits[i >> 6] >> (i & 63)) & 1; }
    void set_used(std::size_t i, bool on) {
      const std::uint64_t m = std::uint64_t{1} << (i & 63);
      bits[i >> 6] = on ? bits[i >> 6] | m : bits[i >> 6] & ~m;
    }
    T* at(std::size_t i) {
      return std::launder(reinterpret_cast<T*>(storage) + i);
    }
  };
  struct DirTraits {
    static std::uint64_t empty() { return ~std::uint64_t{0}; }
    static std::size_t hash(std::uint64_t no) { return mix_hash(no); }
  };

  T* lookup(std::uint64_t key) const {
    Leaf* leaf = leaf_of(key >> kLeafBits);
    if (leaf == nullptr) return nullptr;
    const std::size_t i = key & (kLeafSlots - 1);
    return leaf->used(i) ? leaf->at(i) : nullptr;
  }

  Leaf* leaf_of(std::uint64_t no) const {
    if (no == memo_no_) return memo_leaf_;
    const auto* s = dir_.find(no);
    if (s == nullptr) return nullptr;
    memo_no_ = no;
    memo_leaf_ = s->value;
    return s->value;
  }

  void release(std::uint64_t no, Leaf* leaf) {
    dir_.erase(no);
    if (memo_no_ == no) {
      memo_no_ = DirTraits::empty();
      memo_leaf_ = nullptr;
    }
    delete leaf;
  }

  // Leaf numbers in ascending order.
  std::vector<std::uint64_t> leaf_numbers() const {
    std::vector<std::uint64_t> nos;
    nos.reserve(dir_.size());
    for (const auto& s : dir_) nos.push_back(s.key);
    std::sort(nos.begin(), nos.end());
    return nos;
  }

  OpenMap<std::uint64_t, Leaf*, DirTraits> dir_;
  std::size_t count_ = 0;
  // The leaf looked up last (DirTraits::empty() = none).
  mutable std::uint64_t memo_no_ = DirTraits::empty();
  mutable Leaf* memo_leaf_ = nullptr;
};

}  // namespace ordma
