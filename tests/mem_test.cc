// Unit tests for the memory substrate: physical memory, page tables,
// pin/lock semantics, registrations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "common/crc32.h"
#include "host/host.h"
#include "mem/address_space.h"
#include "mem/physical_memory.h"

namespace ordma::mem {
namespace {

std::vector<std::byte> bytes(std::initializer_list<int> xs) {
  std::vector<std::byte> v;
  for (int x : xs) v.push_back(static_cast<std::byte>(x));
  return v;
}

TEST(PhysicalMemory, ReadsOfUntouchedMemoryAreZero) {
  PhysicalMemory pm(16);
  std::vector<std::byte> out(64);
  pm.read(100, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(pm.frames_touched(), 0u);
}

TEST(PhysicalMemory, WriteReadRoundTrip) {
  PhysicalMemory pm(16);
  const auto data = bytes({1, 2, 3, 4, 5});
  pm.write(1000, data);
  std::vector<std::byte> out(5);
  pm.read(1000, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(pm.frames_touched(), 1u);
}

TEST(PhysicalMemory, CrossFrameTransfer) {
  PhysicalMemory pm(16);
  std::vector<std::byte> data(kPageSize + 100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i & 0xff);
  }
  const Paddr addr = kPageSize - 50;  // straddles frames 0,1,2
  pm.write(addr, data);
  std::vector<std::byte> out(data.size());
  pm.read(addr, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(pm.frames_touched(), 3u);
}

TEST(PhysicalMemory, FrameDataGivesWholePage) {
  PhysicalMemory pm(4);
  auto f = pm.frame_data(2);
  EXPECT_EQ(f.size(), kPageSize);
  f[0] = std::byte{0xAB};
  std::vector<std::byte> out(1);
  pm.read(frame_base(2), out);
  EXPECT_EQ(out[0], std::byte{0xAB});
}

TEST(FrameAllocator, AllocatesDistinctFramesAndRecycles) {
  FrameAllocator alloc(10, 3);
  auto a = alloc.allocate();
  auto b = alloc.allocate();
  auto c = alloc.allocate();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(alloc.allocate().code(), Errc::no_space);
  alloc.free(b.value());
  auto d = alloc.allocate();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), b.value());
}

TEST(FrameAllocator, TracksFreeCount) {
  FrameAllocator alloc(0, 5);
  EXPECT_EQ(alloc.free_frames(), 5u);
  auto a = alloc.allocate();
  EXPECT_EQ(alloc.free_frames(), 4u);
  alloc.free(a.value());
  EXPECT_EQ(alloc.free_frames(), 5u);
}

class AddressSpaceTest : public ::testing::Test {
 protected:
  PhysicalMemory pm_{64};
  AddressSpace as_{pm_};
};

TEST_F(AddressSpaceTest, TranslateMappedPage) {
  as_.map(5, 9);
  auto pa = as_.translate(5 * kPageSize + 123, false);
  ASSERT_TRUE(pa.ok());
  EXPECT_EQ(pa.value(), 9 * kPageSize + 123);
}

TEST_F(AddressSpaceTest, TranslateUnmappedFaults) {
  EXPECT_EQ(as_.translate(kPageSize, false).code(), Errc::access_fault);
}

TEST_F(AddressSpaceTest, WriteProtectionFaultsWritesOnly) {
  as_.map(1, 2, /*writable=*/false);
  EXPECT_TRUE(as_.translate(kPageSize, false).ok());
  EXPECT_EQ(as_.translate(kPageSize, true).code(), Errc::access_fault);
  as_.protect(1, /*writable=*/true);
  EXPECT_TRUE(as_.translate(kPageSize, true).ok());
}

TEST_F(AddressSpaceTest, ReadWriteThroughPageTable) {
  as_.map(0, 3);
  as_.map(1, 7);  // non-contiguous frames behind contiguous va
  std::vector<std::byte> data(kPageSize + 32);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 7) & 0xff);
  }
  // Starting at vpn0 end, the range spans vpns 0..2; vpn 2 is unmapped.
  EXPECT_FALSE(as_.write(kPageSize - 16, data).ok());
  as_.map(2, 9);
  ASSERT_TRUE(as_.write(kPageSize - 16, data).ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(as_.read(kPageSize - 16, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(AddressSpaceTest, PinPreventsUnmapUntilUnpinned) {
  as_.map(4, 8);
  as_.pin(4);
  EXPECT_TRUE(as_.lookup(4)->pinned());
  as_.unpin(4);
  EXPECT_FALSE(as_.lookup(4)->pinned());
  EXPECT_EQ(as_.unmap(4), Pfn{8});
}

TEST_F(AddressSpaceTest, PinRangeValidatesBeforePinning) {
  as_.map(0, 1);
  // Range extends into unmapped vpn 1: must fail with no pins taken.
  EXPECT_EQ(as_.pin_range(100, kPageSize * 2).code(), Errc::access_fault);
  EXPECT_EQ(as_.lookup(0)->pin_count, 0);
  EXPECT_TRUE(as_.pin_range(0, kPageSize).ok());
  EXPECT_EQ(as_.lookup(0)->pin_count, 1);
  as_.unpin_range(0, kPageSize);
  EXPECT_EQ(as_.lookup(0)->pin_count, 0);
}

TEST_F(AddressSpaceTest, LockFlagToggles) {
  as_.map(2, 5);
  EXPECT_FALSE(as_.lookup(2)->locked);
  as_.lock(2);
  EXPECT_TRUE(as_.lookup(2)->locked);
  as_.unlock(2);
  EXPECT_FALSE(as_.lookup(2)->locked);
}

TEST_F(AddressSpaceTest, RegistrationPinsAndUnpinsRaii) {
  as_.map(0, 1);
  as_.map(1, 2);
  {
    Registration reg(as_, 100, kPageSize);  // spans vpn 0 and 1
    EXPECT_EQ(as_.lookup(0)->pin_count, 1);
    EXPECT_EQ(as_.lookup(1)->pin_count, 1);
  }
  EXPECT_EQ(as_.lookup(0)->pin_count, 0);
  EXPECT_EQ(as_.lookup(1)->pin_count, 0);
}

TEST_F(AddressSpaceTest, PageHelpers) {
  EXPECT_EQ(page_of(0), 0u);
  EXPECT_EQ(page_of(kPageSize - 1), 0u);
  EXPECT_EQ(page_of(kPageSize), 1u);
  EXPECT_EQ(page_offset(kPageSize + 17), 17u);
  EXPECT_EQ(frame_base(3), 3 * kPageSize);
}

// Two address spaces over one physical memory, each with six pages mapped
// to scattered frames, as a host's kernel and user spaces are.
class SpanOpsTest : public ::testing::Test {
 protected:
  static constexpr Vpn kPages = 6;

  SpanOpsTest() {
    for (Vpn v = 0; v < kPages; ++v) {
      src_.map(v, 3 * v + 1);
      dst_.map(v, 3 * v + 2);
    }
    std::vector<std::byte> fill(kPages * kPageSize);
    for (std::size_t i = 0; i < fill.size(); ++i) {
      fill[i] = static_cast<std::byte>((i * 131 + 7) >> 3);
    }
    // Leave the last source page untouched: it must read as zeroes.
    EXPECT_TRUE(src_.write(0, std::span(fill).first(5 * kPageSize)).ok());
  }

  std::vector<std::byte> read(const AddressSpace& as, Vaddr va, Bytes n) {
    std::vector<std::byte> out(n);
    EXPECT_TRUE(as.read(va, out).ok());
    return out;
  }

  PhysicalMemory pm_{64};
  AddressSpace src_{pm_};
  AddressSpace dst_{pm_};
};

TEST_F(SpanOpsTest, CopyMatchesReadThenWrite) {
  // Aligned, unaligned on either side, across pages, into the untouched
  // page, and zero length.
  const struct {
    Vaddr from, to;
    Bytes len;
  } cases[] = {{0, 0, kPageSize},
               {17, 4000, 3 * kPageSize + 5},
               {kPageSize - 1, 1, 2},
               {4 * kPageSize + 100, 9, kPageSize + 300},
               {5, 5 * kPageSize + 7, 0},
               {0, 0, kPages * kPageSize}};
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << c.from << " -> " << c.to << " x "
                                    << c.len);
    const auto before = read(dst_, 0, kPages * kPageSize);
    ASSERT_TRUE(copy(src_, c.from, dst_, c.to, c.len).ok());
    auto want = before;
    const auto moved = read(src_, c.from, c.len);
    std::copy(moved.begin(), moved.end(), want.begin() + c.to);
    EXPECT_EQ(read(dst_, 0, kPages * kPageSize), want);
  }
}

TEST_F(SpanOpsTest, CopyWithinOneSpace) {
  ASSERT_TRUE(copy(src_, 10, src_, 3 * kPageSize + 1, kPageSize).ok());
  EXPECT_EQ(read(src_, 3 * kPageSize + 1, kPageSize),
            read(src_, 10, kPageSize));
}

TEST_F(SpanOpsTest, ChecksumMatchesReadThenCrc) {
  for (const Vaddr va : {Vaddr{0}, Vaddr{1}, Vaddr{kPageSize - 3},
                         Vaddr{2 * kPageSize + 77}}) {
    for (const Bytes len : {Bytes{0}, Bytes{1}, Bytes{63}, Bytes{64},
                            Bytes{kPageSize}, Bytes{3 * kPageSize + 11}}) {
      if (va + len > kPages * kPageSize) continue;
      const auto bytes = read(src_, va, len);
      auto sum = checksum(src_, va, len, 0x811c9dc5u);
      ASSERT_TRUE(sum.ok());
      EXPECT_EQ(sum.value(), crc32_update(0x811c9dc5u, bytes))
          << "va " << va << " len " << len;
    }
  }
  // Over the untouched page, which stays unbacked.
  const std::size_t touched = pm_.frames_touched();
  auto sum = checksum(src_, 4 * kPageSize + 9, 2 * kPageSize - 9, 7);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum.value(),
            crc32_update(7, read(src_, 4 * kPageSize + 9, 2 * kPageSize - 9)));
  EXPECT_EQ(pm_.frames_touched(), touched);
  // Length 0 returns the register unchanged, even at an unmapped address.
  EXPECT_EQ(checksum(src_, 100 * kPageSize, 0, 42).value(), 42u);
}

TEST_F(SpanOpsTest, FaultsLikeReadAndWrite) {
  // Unmapped source page (the range runs off the mapped six).
  const Vaddr tail = (kPages - 1) * kPageSize + 10;
  std::vector<std::byte> out(kPageSize);
  EXPECT_EQ(src_.read(tail, out).code(), Errc::access_fault);
  EXPECT_EQ(copy(src_, tail, dst_, 0, kPageSize).code(), Errc::access_fault);
  EXPECT_EQ(checksum(src_, tail, kPageSize, 0).code(), Errc::access_fault);
  // Write-protected destination page.
  dst_.protect(2, /*writable=*/false);
  EXPECT_EQ(dst_.write(2 * kPageSize, out).code(), Errc::access_fault);
  EXPECT_EQ(copy(src_, 0, dst_, 2 * kPageSize - 8, 16).code(),
            Errc::access_fault);
  // A write-protected source is still readable.
  EXPECT_TRUE(copy(dst_, 2 * kPageSize, src_, 0, 16).ok());
  EXPECT_TRUE(checksum(dst_, 2 * kPageSize, 16, 0).ok());
}

TEST(AddressSpace, MapUnmapCyclesKeepThePageTableBounded) {
  // Host::map_new never reuses a VA, so only leaf release keeps the page
  // table from growing with every cycle.
  sim::Engine eng;
  host::CostModel cm;
  host::Host h(eng, "h", cm);
  mem::AddressSpace& as = h.user_as();
  const std::size_t pages = as.mapped_pages();
  const std::size_t leaves = as.table_leaves();
  std::size_t max_leaves = 0;
  for (int i = 0; i < 10000; ++i) {
    const Vaddr va = h.map_new(as, 2 * kPageSize);
    max_leaves = std::max(max_leaves, as.table_leaves());
    h.unmap(as, va, 2 * kPageSize);
  }
  EXPECT_LE(max_leaves, leaves + 2);  // a run may straddle two leaves
  EXPECT_EQ(as.mapped_pages(), pages);
  EXPECT_EQ(as.table_leaves(), leaves);
}

}  // namespace
}  // namespace ordma::mem
