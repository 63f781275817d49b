// Unit tests for the fabric: buffers, link serialisation/latency, switch
// forwarding, and port contention.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/fabric.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/engine.h"

namespace ordma::net {
namespace {

std::vector<std::byte> pattern(std::size_t n, int seed = 0) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  }
  return v;
}

TEST(Buffer, CopySliceView) {
  auto data = pattern(100);
  Buffer b = Buffer::copy_of(data);
  EXPECT_EQ(b.size(), 100u);
  Buffer s = b.slice(10, 20);
  EXPECT_EQ(s.size(), 20u);
  EXPECT_TRUE(std::equal(s.view().begin(), s.view().end(),
                         data.begin() + 10));
  Buffer s2 = s.slice(5, 5);  // slice of slice
  EXPECT_TRUE(std::equal(s2.view().begin(), s2.view().end(),
                         data.begin() + 15));
}

TEST(Buffer, EmptyBufferIsSafe) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.view().size(), 0u);
}

TEST(Buffer, ZeroLengthSlices) {
  auto data = pattern(64);
  Buffer b = Buffer::copy_of(data);
  // Zero-length slices are legal at every offset, including one-past-end.
  for (std::size_t off : {std::size_t{0}, std::size_t{32}, std::size_t{64}}) {
    Buffer z = b.slice(off, 0);
    EXPECT_TRUE(z.empty());
    EXPECT_EQ(z.view().size(), 0u);
  }
  // Zero-length inputs to the constructors are fine too.
  EXPECT_TRUE(Buffer::copy_of({}).empty());
  EXPECT_TRUE(Buffer::take({}).empty());
  EXPECT_TRUE(Buffer::alloc(0).view().empty());
}

TEST(Buffer, SliceOfSliceAtBoundaries) {
  auto data = pattern(100);
  Buffer b = Buffer::copy_of(data);
  Buffer full = b.slice(0, 100);  // identity slice
  EXPECT_TRUE(std::equal(full.view().begin(), full.view().end(),
                         data.begin()));
  Buffer tail = b.slice(90, 10);  // runs exactly to the end
  EXPECT_TRUE(std::equal(tail.view().begin(), tail.view().end(),
                         data.begin() + 90));
  Buffer tail_of_tail = tail.slice(9, 1);  // last byte via two levels
  EXPECT_EQ(tail_of_tail.view()[0], data[99]);
  Buffer empty_end = tail.slice(10, 0);  // one-past-end of a slice
  EXPECT_TRUE(empty_end.empty());
}

TEST(Buffer, SliceKeepsBackingStoreAlive) {
  Buffer s;
  {
    Buffer b = Buffer::copy_of(pattern(32, 7));
    s = b.slice(8, 8);
  }  // b destroyed; s must still see valid bytes
  const auto data = pattern(32, 7);
  EXPECT_TRUE(std::equal(s.view().begin(), s.view().end(), data.begin() + 8));
}

TEST(Buffer, PoolReuseReturnsZeroedBuffers) {
  // Dirty a Rep, return it to the pool, and re-acquire: alloc() promises
  // zeroed bytes even when the backing store lived a previous life.
  for (int round = 0; round < 3; ++round) {
    Buffer b = Buffer::alloc(256);
    for (const std::byte byte : b.view()) {
      EXPECT_EQ(byte, std::byte{0});
    }
    auto m = b.mutable_view();
    std::fill(m.begin(), m.end(), std::byte{0xff});
  }  // each b returns its Rep to the pool dirty
}

TEST(Buffer, ReleasingPoolCapacitySparesLiveBuffers) {
  // Only idle reps lose their storage: a buffer still referenced keeps its
  // bytes, and reps drawn after the release come back zeroed.
  const auto data = pattern(KiB(64), 7);
  Buffer live = Buffer::copy_of(data);
  { Buffer idle = Buffer::copy_of(pattern(KiB(64), 8)); }
  Buffer::release_pool_capacity();
  EXPECT_TRUE(std::equal(live.view().begin(), live.view().end(),
                         data.begin(), data.end()));
  const Buffer fresh = Buffer::alloc(KiB(64));
  for (const std::byte byte : fresh.view()) {
    ASSERT_EQ(byte, std::byte{0});
  }
}

TEST(Buffer, PoolChurnSurvivesManyLiveBuffers) {
  // Push well past any free-list watermark with interleaved lifetimes:
  // contents must stay intact and distinct per buffer.
  std::vector<Buffer> live;
  for (int i = 0; i < 300; ++i) {
    Buffer b = Buffer::copy_of(pattern(64, i));
    live.push_back(b.slice(i % 32, 32));
    if (i % 3 == 0 && !live.empty()) live.erase(live.begin());
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].size(), 32u);
  }
  // Spot-check the newest survivor against its generating pattern.
  const auto data = pattern(64, 299);
  const Buffer& last = live.back();
  EXPECT_TRUE(std::equal(last.view().begin(), last.view().end(),
                         data.begin() + 299 % 32));
}

TEST(Buffer, AllocCopyOfAndBuilderReadBackWhatWasWritten) {
  // Each maker puts the data behind the rep's headroom; what a view reads
  // must be exactly what was written, also from reps dirtied by a previous
  // life in the pool.
  for (int round = 0; round < 3; ++round) {
    const auto data = pattern(300, round);
    {
      Buffer dirty = Buffer::alloc(400);
      auto m = dirty.mutable_view();
      std::fill(m.begin(), m.end(), std::byte{0xee});
    }
    Buffer a = Buffer::alloc(data.size());
    std::copy(data.begin(), data.end(), a.mutable_view().begin());
    EXPECT_TRUE(std::ranges::equal(a.view(), data));

    const Buffer c = Buffer::copy_of(data);
    EXPECT_TRUE(std::ranges::equal(c.view(), data));

    BufferBuilder bld;
    bld.append(std::span(data).first(100));
    std::copy(data.begin() + 100, data.end(), bld.grow(200));
    EXPECT_EQ(bld.size(), data.size());
    EXPECT_TRUE(std::ranges::equal(bld.view(), data));
    const Buffer f = bld.finish();
    EXPECT_TRUE(std::ranges::equal(f.view(), data));
  }
}

TEST(Buffer, PrependGrowsAnUnsharedViewIntoHeadroom) {
  const auto data = pattern(100, 3);
  Buffer b = Buffer::copy_of(data);
  const std::byte* at = b.view().data();
  ASSERT_TRUE(b.prepend(8));
  EXPECT_EQ(b.size(), 108u);
  EXPECT_EQ(b.view().data() + 8, at);  // grown in place, nothing moved
  auto w = b.mutable_view();
  std::fill(w.begin(), w.begin() + 8, std::byte{0xab});
  EXPECT_TRUE(std::ranges::equal(b.view().subspan(8), data));

  // The rest of the headroom is usable; past it, prepend refuses.
  ASSERT_TRUE(b.prepend(Buffer::kHeadroom - 8));
  EXPECT_FALSE(b.prepend(1));
  EXPECT_EQ(b.size(), Buffer::kHeadroom + 100);

  // A view another view shares may not change under it.
  Buffer shared = Buffer::copy_of(data);
  const Buffer other = shared;
  EXPECT_FALSE(shared.prepend(8));
  EXPECT_EQ(shared.size(), 100u);

  // A slice left alone by its parent may grow back over the parent's bytes.
  Buffer tail = Buffer::copy_of(data).slice(20, 80);
  ASSERT_TRUE(tail.prepend(20));
  EXPECT_TRUE(std::ranges::equal(tail.view(), data));

  // Buffers that adopt a caller's vector have no headroom.
  Buffer taken = Buffer::take(data);
  EXPECT_FALSE(taken.prepend(1));
  EXPECT_FALSE(Buffer().prepend(0));
}

TEST(Buffer, WithFrontCopiesOnlyASharedBody) {
  const auto data = pattern(1000, 4);
  Buffer body = Buffer::copy_of(data);
  const std::byte* at = body.view().data();
  Buffer grown = Buffer::with_front(std::move(body), 24);
  EXPECT_EQ(grown.view().data() + 24, at);
  EXPECT_TRUE(std::ranges::equal(grown.view().subspan(24), data));

  Buffer kept = Buffer::copy_of(data);
  Buffer copy = Buffer::with_front(kept, 24);  // `kept` still views it
  EXPECT_NE(copy.view().data() + 24, kept.view().data());
  ASSERT_EQ(copy.size(), 24 + data.size());
  EXPECT_TRUE(std::ranges::all_of(copy.view().first(24),
                                  [](std::byte x) { return x == std::byte{0}; }));
  EXPECT_TRUE(std::ranges::equal(copy.view().subspan(24), data));
  EXPECT_TRUE(std::ranges::equal(kept.view(), data));

  const Buffer empty = Buffer::with_front(Buffer(), 8);
  EXPECT_EQ(empty.size(), 8u);
}

TEST(Buffer, ExtendJoinsOnlyAdjacentViewsOfOneRep) {
  const auto data = pattern(300, 5);
  const Buffer whole = Buffer::copy_of(data);
  Buffer head = whole.slice(0, 100);
  EXPECT_FALSE(head.extend(whole.slice(150, 50)));  // gap
  EXPECT_FALSE(head.extend(Buffer::copy_of(std::span(data).subspan(100, 50))));
  EXPECT_EQ(head.size(), 100u);
  ASSERT_TRUE(head.extend(whole.slice(100, 150)));
  ASSERT_TRUE(head.extend(whole.slice(250, 50)));
  EXPECT_EQ(head.view().data(), whole.view().data());
  EXPECT_TRUE(std::ranges::equal(head.view(), data));
}

TEST(Buffer, IdleRepsArePoisonedUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  const std::byte* p = nullptr;
  {
    const Buffer b = Buffer::alloc(256);
    p = b.view().data();
    EXPECT_FALSE(__asan_address_is_poisoned(p));
  }
  // Idle in the pool: a span that outlived its buffer now faults...
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_DEATH(
      {
        volatile std::byte x = *p;
        (void)x;
      },
      "use-after-poison");
  // ...until the pool hands the rep out again (its free list is LIFO).
  const Buffer again = Buffer::alloc(256);
  EXPECT_EQ(again.view().data(), p);
  EXPECT_FALSE(__asan_address_is_poisoned(p));
#else
  GTEST_SKIP() << "built without AddressSanitizer";
#endif
}

TEST(Link, DeliversAfterSerialisationPlusLatency) {
  sim::Engine eng;
  Link link(eng, MBps(100), usec(5), "l");
  SimTime delivered{};
  link.set_sink([&](Packet) { delivered = eng.now(); });

  Packet p;
  p.header_bytes = 0;
  p.payload = Buffer::copy_of(pattern(1000));  // 10us at 100MB/s
  link.send(std::move(p));
  eng.run();
  EXPECT_EQ(delivered, SimTime{} + usec(15));
}

TEST(Link, BackToBackPacketsPipelineSerialisation) {
  sim::Engine eng;
  Link link(eng, MBps(100), usec(5), "l");
  std::vector<std::int64_t> times;
  link.set_sink([&](Packet) { times.push_back(eng.now().ns); });
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.payload = Buffer::copy_of(pattern(1000));
    link.send(std::move(p));
  }
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  // Serialisations at 10,20,30us; each +5us propagation.
  EXPECT_EQ(times[0], usec(15).ns);
  EXPECT_EQ(times[1], usec(25).ns);
  EXPECT_EQ(times[2], usec(35).ns);
}

TEST(Link, HeaderBytesCostBandwidth) {
  sim::Engine eng;
  Link link(eng, MBps(100), Duration{0}, "l");
  SimTime delivered{};
  link.set_sink([&](Packet) { delivered = eng.now(); });
  Packet p;
  p.header_bytes = 500;
  p.payload = Buffer::copy_of(pattern(500));
  link.send(std::move(p));
  eng.run();
  EXPECT_EQ(delivered, SimTime{} + usec(10));  // 1000 wire bytes
}

class FabricTest : public ::testing::Test {
 protected:
  sim::Engine eng_;
  FabricConfig cfg_;
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::vector<Packet>> received_;

  NodeId add(const std::string& name) {
    const auto idx = received_.size();
    received_.emplace_back();
    return fabric_->add_node(name, [this, idx](Packet p) {
      received_[idx].push_back(std::move(p));
    });
  }

  void SetUp() override { fabric_ = std::make_unique<Fabric>(eng_, cfg_); }
};

TEST_F(FabricTest, DeliversToAddressedNodeOnly) {
  const NodeId a = add("a"), b = add("b"), c = add("c");
  Packet p;
  p.src = a;
  p.dst = b;
  p.payload = Buffer::copy_of(pattern(64));
  fabric_->send(std::move(p));
  eng_.run();
  EXPECT_EQ(received_[a].size(), 0u);
  ASSERT_EQ(received_[b].size(), 1u);
  EXPECT_EQ(received_[c].size(), 0u);
  EXPECT_EQ(received_[b][0].payload.size(), 64u);
}

TEST_F(FabricTest, PayloadBytesSurviveTransit) {
  const NodeId a = add("a"), b = add("b");
  const auto data = pattern(5000, 3);
  Packet p;
  p.src = a;
  p.dst = b;
  p.payload = Buffer::copy_of(data);
  fabric_->send(std::move(p));
  eng_.run();
  ASSERT_EQ(received_[b].size(), 1u);
  const auto v = received_[b][0].payload.view();
  EXPECT_TRUE(std::equal(v.begin(), v.end(), data.begin()));
}

TEST(FabricContention, TwoSendersShareOneDownlink) {
  // Both a and b stream to c; c's downlink (2 Gb/s) is the bottleneck, so
  // the total delivery time is roughly double a single sender's.
  auto run = [](bool both) {
    sim::Engine eng;
    Fabric fabric(eng);
    const NodeId a = fabric.add_node("a", [](Packet) {});
    const NodeId b = fabric.add_node("b", [](Packet) {});
    const NodeId c = fabric.add_node("c", [](Packet) {});
    for (int i = 0; i < 64; ++i) {
      Packet p;
      p.src = a;
      p.dst = c;
      p.payload = Buffer::copy_of(pattern(4096));
      fabric.send(std::move(p));
      if (both) {
        Packet q;
        q.src = b;
        q.dst = c;
        q.payload = Buffer::copy_of(pattern(4096));
        fabric.send(std::move(q));
      }
    }
    eng.run();
    return eng.now().ns;
  };
  const auto t1 = run(false);
  const auto t2 = run(true);
  EXPECT_GT(t2, t1 * 18 / 10);  // ~2x, allowing pipeline edge effects
  EXPECT_LT(t2, t1 * 22 / 10);
}

TEST_F(FabricTest, FifoOrderPreservedPerFlow) {
  const NodeId a = add("a"), b = add("b");
  for (std::uint32_t i = 0; i < 10; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.frag_index = i;
    p.payload = Buffer::copy_of(pattern(128));
    fabric_->send(std::move(p));
  }
  eng_.run();
  ASSERT_EQ(received_[b].size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(received_[b][i].frag_index, i);
  }
}

}  // namespace
}  // namespace ordma::net
