// Unit tests for the lookup structures on the per-event path: the
// open-addressing map (common/open_map.h) and the page-indexed table
// (common/page_table.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/open_map.h"
#include "common/page_table.h"

namespace ordma {
namespace {

struct MixTraits {
  static std::uint64_t empty() { return ~std::uint64_t{0}; }
  static std::size_t hash(std::uint64_t k) { return mix_hash(k); }
};

// Key h * 256 + d has home slot h (mod capacity): tests place keys on the
// probe sequence by hand.
struct HomeTraits {
  static std::uint64_t empty() { return ~std::uint64_t{0}; }
  static std::size_t hash(std::uint64_t k) { return k >> 8; }
};
constexpr std::uint64_t key_at(std::uint64_t home, std::uint64_t d) {
  return home << 8 | d;
}

TEST(OpenMap, FindsWhatWasInsertedAndNothingElse) {
  OpenMap<std::uint64_t, int, MixTraits> m;
  EXPECT_EQ(m.find(5), nullptr);
  auto [s, created] = m.try_emplace(5);
  ASSERT_TRUE(created);
  EXPECT_EQ(s->value, 0);  // value-initialised
  s->value = 50;
  auto [again, created_again] = m.try_emplace(5);
  EXPECT_FALSE(created_again);
  EXPECT_EQ(again->value, 50);
  EXPECT_EQ(m.find(6), nullptr);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.erase(5));
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_EQ(m.size(), 0u);
}

TEST(OpenMap, EraseInsideAChainThatWrapsKeepsEveryKeyFindable) {
  OpenMap<std::uint64_t, std::uint64_t, HomeTraits> m;
  m.try_emplace(key_at(0, 99));  // allocates the table
  m.erase(key_at(0, 99));
  const std::size_t cap = m.capacity();
  ASSERT_GE(cap, 8u);
  const std::uint64_t last = cap - 1;
  // Four keys homed on the second-to-last slot fill it, the last slot,
  // and wrap into slots 0 and 1; a key homed on the last slot lands in
  // slot 2, one homed on slot 0 in slot 3, and one homed on slot 5 at
  // home, where no shift may move it.
  const std::vector<std::uint64_t> keys = {
      key_at(last - 1, 0), key_at(last - 1, 1), key_at(last - 1, 2),
      key_at(last - 1, 3), key_at(last, 0),     key_at(0, 0),
      key_at(5, 0)};
  for (std::uint64_t k : keys) m.try_emplace(k).first->value = k + 1;

  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    OpenMap<std::uint64_t, std::uint64_t, HomeTraits> copy;
    copy.try_emplace(key_at(0, 99));
    copy.erase(key_at(0, 99));
    for (std::uint64_t k : keys) copy.try_emplace(k).first->value = k + 1;
    ASSERT_TRUE(copy.erase(keys[victim]));
    EXPECT_EQ(copy.size(), keys.size() - 1);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto* s = copy.find(keys[i]);
      if (i == victim) {
        EXPECT_EQ(s, nullptr);
      } else {
        ASSERT_NE(s, nullptr) << "lost key " << i << " erasing " << victim;
        EXPECT_EQ(s->value, keys[i] + 1);
      }
    }
  }
  // Erasing them all in insertion order empties the table cleanly.
  for (std::uint64_t k : keys) EXPECT_TRUE(m.erase(k));
  EXPECT_EQ(m.size(), 0u);
  for (std::uint64_t k : keys) EXPECT_EQ(m.find(k), nullptr);
}

TEST(OpenMap, GrowthKeepsEveryEntry) {
  OpenMap<std::uint64_t, std::unique_ptr<std::uint64_t>, MixTraits> m;
  constexpr std::uint64_t kN = 10000;
  std::size_t grown = 0;
  std::size_t cap = m.capacity();
  for (std::uint64_t k = 0; k < kN; ++k) {
    m.try_emplace(k * 7919).first->value =
        std::make_unique<std::uint64_t>(k);
    if (m.capacity() != cap) {
      ++grown;
      cap = m.capacity();
    }
  }
  EXPECT_GE(grown, 5u);
  EXPECT_EQ(m.size(), kN);
  EXPECT_LE(m.size() * 4, m.capacity() * 3);
  for (std::uint64_t k = 0; k < kN; ++k) {
    const auto* s = m.find(k * 7919);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(*s->value, k);
  }
}

TEST(OpenMap, IterationVisitsEachLiveEntryOnce) {
  OpenMap<std::uint64_t, std::uint64_t, MixTraits> m;
  for (std::uint64_t k = 1; k <= 500; ++k) m.try_emplace(k).first->value = k;
  for (std::uint64_t k = 3; k <= 500; k += 3) m.erase(k);
  std::map<std::uint64_t, int> seen;
  for (const auto& s : m) {
    ++seen[s.key];
    EXPECT_EQ(s.value, s.key);
  }
  EXPECT_EQ(seen.size(), m.size());
  for (std::uint64_t k = 1; k <= 500; ++k) {
    EXPECT_EQ(seen.count(k), k % 3 == 0 ? 0u : 1u) << k;
  }
  for (const auto& [k, n] : seen) EXPECT_EQ(n, 1) << k;
}

// Counts live instances, to check PageTable constructs and destroys each
// value exactly once.
struct Counted {
  static inline int live = 0;
  static inline std::vector<std::uint64_t> destroyed;
  std::uint64_t id = 0;
  explicit Counted(std::uint64_t i) : id(i) { ++live; }
  Counted(Counted&& o) noexcept : id(o.id) {
    ++live;
    o.id = 0;
  }
  ~Counted() {
    --live;
    if (id != 0) destroyed.push_back(id);
  }
};

TEST(PageTable, HandlesSparseKeysFarApart) {
  PageTable<std::uint64_t> t;
  const std::vector<std::uint64_t> keys = {
      0, 1, 511, 512, std::uint64_t{1} << 40, (std::uint64_t{1} << 40) + 5,
      ~std::uint64_t{0} - 1};
  for (std::uint64_t k : keys) {
    auto [v, created] = t.try_emplace(k, k ^ 0xabc);
    EXPECT_TRUE(created);
    EXPECT_EQ(*v, k ^ 0xabc);
  }
  EXPECT_EQ(t.size(), keys.size());
  // Keys 0, 1, 511 share a leaf; everything else has its own or shares
  // with its +5 neighbour.
  EXPECT_EQ(t.leaves(), 4u);
  for (std::uint64_t k : keys) {
    ASSERT_NE(t.find(k), nullptr) << k;
    EXPECT_EQ(*t.find(k), k ^ 0xabc);
  }
  for (std::uint64_t k : {std::uint64_t{2}, std::uint64_t{513},
                          (std::uint64_t{1} << 40) + 1,
                          std::uint64_t{1} << 20, ~std::uint64_t{0}}) {
    EXPECT_EQ(t.find(k), nullptr) << k;
  }
}

TEST(PageTable, ErasingALeafsLastEntryReleasesTheLeaf) {
  Counted::live = 0;
  {
    PageTable<Counted> t;
    Counted* first = t.try_emplace(1024, 1).first;
    t.try_emplace(1025, 2);
    t.try_emplace(1535, 3);  // last slot of the same leaf
    t.try_emplace(1536, 4);  // next leaf
    EXPECT_EQ(t.leaves(), 2u);
    EXPECT_EQ(Counted::live, 4);
    for (std::uint64_t k = 2000; k < 3000; ++k) t.try_emplace(k, k);
    EXPECT_EQ(t.find(1024), first);  // entries never move
    for (std::uint64_t k = 2000; k < 3000; ++k) t.erase(k);

    EXPECT_TRUE(t.erase(1025));
    EXPECT_TRUE(t.erase(1535));
    EXPECT_EQ(t.leaves(), 2u);
    EXPECT_TRUE(t.erase(1024));
    EXPECT_EQ(t.leaves(), 1u);  // the leaf went with its last entry
    EXPECT_EQ(t.find(1024), nullptr);
    EXPECT_FALSE(t.erase(1024));
    EXPECT_EQ(Counted::live, 1);
    // A key whose leaf was released gets a fresh leaf.
    t.try_emplace(1030, 5);
    EXPECT_EQ(t.leaves(), 2u);
    EXPECT_EQ(t.find(1030)->id, 5u);
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(PageTable, ClearDestroysNewestKeyFirst) {
  Counted::destroyed.clear();
  {
    PageTable<Counted> t;
    for (std::uint64_t k : {3, 700, 1, 5000, 2}) t.try_emplace(k, k);
  }
  EXPECT_EQ(Counted::destroyed,
            (std::vector<std::uint64_t>{5000, 700, 3, 2, 1}));
}

}  // namespace
}  // namespace ordma
