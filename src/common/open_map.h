// Open-addressing hash map for lookups on the per-event path.
//
// Linear probing over a power-of-two slot array, grown at 3/4 load, with
// backward-shift deletion: erasing a slot slides each follower of its
// probe chain home-ward while that is legal, so chains stay contiguous and
// no tombstones accumulate. A reserved key (Traits::empty()) marks a free
// slot, so a probe reads keys only and a slot is one flat {key, value}
// pair: no per-entry allocation and no pointer chase.
//
// Traits supplies the reserved key and the hash:
//
//   struct MyTraits {
//     static K empty();                 // never inserted
//     static std::size_t hash(const K&);
//   };
//
// Slots move on growth and on erase, so a Slot* (or a pointer into its
// value) is valid only until the next try_emplace or erase. Values that
// must keep their address are held by pointer. Iteration visits live slots
// in slot order, a function of the keys and the insertion/erase history
// only — never of where anything lives in memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace ordma {

// Multiply-xorshift mix for integer keys: the table indexes by the low
// bits, so the high bits of the product are folded down into them.
inline std::size_t mix_hash(std::uint64_t x) {
  x *= 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(x ^ (x >> 29));
}

template <typename K, typename V, typename Traits,
          typename Alloc = std::allocator<std::byte>>
class OpenMap {
 public:
  struct Slot {
    K key;
    V value;
  };

  explicit OpenMap(const Alloc& a = Alloc()) : slots_(SlotAlloc(a)) {}

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return slots_.size(); }

  Slot* find(const K& k) {
    if (count_ == 0) return nullptr;
    for (std::size_t i = home(k);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == k) return &s;
      if (s.key == Traits::empty()) return nullptr;
    }
  }
  const Slot* find(const K& k) const {
    return const_cast<OpenMap*>(this)->find(k);
  }

  // The slot for `k` and whether it was created; a created slot holds a
  // value-initialised V.
  std::pair<Slot*, bool> try_emplace(const K& k) {
    ORDMA_CHECK(!(k == Traits::empty()));
    if ((count_ + 1) * 4 >= slots_.size() * 3) grow();
    for (std::size_t i = home(k);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == k) return {&s, false};
      if (s.key == Traits::empty()) {
        s.key = k;
        ++count_;
        return {&s, true};
      }
    }
  }

  bool erase(const K& k) {
    Slot* s = find(k);
    if (s == nullptr) return false;
    erase(s);
    return true;
  }

  // Erase a slot returned by find/try_emplace (backward-shift deletion).
  void erase(Slot* s) {
    std::size_t i = static_cast<std::size_t>(s - slots_.data());
    for (std::size_t j = i;;) {
      j = (j + 1) & mask_;
      Slot& sj = slots_[j];
      if (sj.key == Traits::empty()) break;
      const std::size_t h = home(sj.key);
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(sj);
        i = j;
      }
    }
    slots_[i].key = Traits::empty();
    slots_[i].value = V();
    --count_;
  }

  // Forward iteration over live slots (no insert or erase meanwhile).
  template <typename S>
  class Iter {
   public:
    Iter(S* p, S* end) : p_(p), end_(end) { skip(); }
    S& operator*() const { return *p_; }
    S* operator->() const { return p_; }
    Iter& operator++() {
      ++p_;
      skip();
      return *this;
    }
    bool operator==(const Iter& o) const { return p_ == o.p_; }

   private:
    void skip() {
      while (p_ != end_ && p_->key == Traits::empty()) ++p_;
    }
    S* p_;
    S* end_;
  };
  Iter<Slot> begin() { return {slots_.data(), slots_.data() + slots_.size()}; }
  Iter<Slot> end() {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }
  Iter<const Slot> begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  Iter<const Slot> end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

 private:
  using SlotAlloc =
      typename std::allocator_traits<Alloc>::template rebind_alloc<Slot>;
  static constexpr std::size_t kMinCapacity = 64;

  std::size_t home(const K& k) const { return Traits::hash(k) & mask_; }

  void grow() {
    std::vector<Slot, SlotAlloc> old(slots_.get_allocator());
    old.swap(slots_);
    const std::size_t cap = old.empty() ? kMinCapacity : old.size() * 2;
    slots_.resize(cap);
    for (Slot& s : slots_) s.key = Traits::empty();
    mask_ = cap - 1;
    for (Slot& s : old) {
      if (s.key == Traits::empty()) continue;
      std::size_t i = home(s.key);
      while (!(slots_[i].key == Traits::empty())) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot, SlotAlloc> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

}  // namespace ordma
