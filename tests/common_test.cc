// Unit tests for common utilities: units, Result, RNG, stats, intrusive list.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/intrusive_list.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace ordma {
namespace {

TEST(Units, DurationArithmetic) {
  EXPECT_EQ(usec(1), nsec(1000));
  EXPECT_EQ(msec(1), usec(1000));
  EXPECT_EQ(sec(1), msec(1000));
  EXPECT_EQ((usec(3) + usec(4)).ns, usec(7).ns);
  EXPECT_EQ((usec(10) - usec(4)).ns, usec(6).ns);
  EXPECT_DOUBLE_EQ(usec(1500).to_ms(), 1.5);
  EXPECT_EQ(usec_f(2.5), nsec(2500));
}

TEST(Units, BandwidthTimeForSize) {
  // 250 MB/s: 4 KiB in 4096/250e6 s = 16.384 us (ceil to ns)
  const Bandwidth bw = MBps(250);
  EXPECT_EQ(bw.time_for(4096).ns, 16384);
  EXPECT_EQ(bw.time_for(0).ns, 0);
  // 2 Gb/s == 250 MB/s
  EXPECT_EQ(Gbps(2).bytes_per_sec, MBps(250).bytes_per_sec);
}

TEST(Units, ThroughputComputation) {
  EXPECT_DOUBLE_EQ(throughput_MBps(MiB(100), sec(1)),
                   static_cast<double>(MiB(100)) / 1e6);
  EXPECT_DOUBLE_EQ(throughput_MBps(1000, Duration{0}), 0.0);
}

TEST(Result, OkAndErrorPaths) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.code(), Errc::ok);

  Result<int> err = Errc::not_found;
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Errc::not_found);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(Result, StatusNames) {
  EXPECT_STREQ(Status(Errc::access_fault).name(), "access_fault");
  EXPECT_STREQ(Status().name(), "ok");
  EXPECT_TRUE(Status().ok());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true, any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    all_equal &= (va == b.next());
    any_diff_c |= (va != c.next());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(Rng, BelowIsInRangeAndCoversRange) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit over 1000 draws
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    const auto v = r.range(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
  }
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(42);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Stats, RunningStatsMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
}

TEST(Stats, SamplesPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1.0);  // nearest-rank
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.percentile(0.9), 90.0, 1.0);
}

TEST(Stats, LatencyHistogramBuckets) {
  LatencyHistogram h;
  h.add(usec(1));
  h.add(usec(3));
  h.add(usec(100));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.mean_us(), (1 + 3 + 100) / 3.0, 0.01);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(Crc32, KnownAnswer) {
  // The standard CRC-32 check value: crc32_update is the bare register
  // update, so the conventional pre- and post-inversion are the caller's.
  const std::string_view s = "123456789";
  const std::span<const std::byte> b(
      reinterpret_cast<const std::byte*>(s.data()), s.size());
  EXPECT_EQ(~crc32_update(~0u, b), 0xCBF43926u);
  EXPECT_EQ(~detail::crc32_update_table(~0u, b), 0xCBF43926u);
}

TEST(Crc32, FoldingKernelMatchesTableLoop) {
  // The dispatching update against the slicing-by-8 reference over every
  // length through 1100 at every misalignment, then random long lengths
  // (past 64 KB) with random misalignment and register state.
  Rng rng(0xc4c32ull);
  std::vector<std::byte> buf(70000 + 16);
  for (auto& x : buf) x = static_cast<std::byte>(rng.next());
  const auto check = [&](std::size_t misalign, std::size_t len,
                         std::uint32_t state) {
    const std::span<const std::byte> in(buf.data() + misalign, len);
    ASSERT_EQ(crc32_update(state, in), detail::crc32_update_table(state, in))
        << "len " << len << " misalign " << misalign;
  };
  for (std::size_t len = 0; len <= 1100; ++len) {
    for (std::size_t m = 0; m < 16; ++m) {
      check(m, len, static_cast<std::uint32_t>(rng.next()));
    }
  }
  for (int i = 0; i < 300; ++i) {
    check(rng.below(16), rng.below(70001),
          static_cast<std::uint32_t>(rng.next()));
  }
  check(0, 70000, 0);
}

struct Item : ListNode {
  explicit Item(int v) : value(v) {}
  int value;
};

TEST(IntrusiveList, PushPopOrder) {
  IntrusiveList<Item> l;
  Item a(1), b(2), c(3);
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  EXPECT_EQ(l.size(), 3u);
  EXPECT_EQ(l.pop_front()->value, 1);
  EXPECT_EQ(l.pop_front()->value, 2);
  EXPECT_EQ(l.pop_front()->value, 3);
  EXPECT_TRUE(l.empty());
}

TEST(IntrusiveList, EraseMiddleAndTouch) {
  IntrusiveList<Item> l;
  Item a(1), b(2), c(3);
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  l.erase(&b);
  EXPECT_EQ(l.size(), 2u);
  EXPECT_FALSE(b.linked());
  l.touch(&a);  // move a to MRU (back)
  EXPECT_EQ(l.front()->value, 3);
  EXPECT_EQ(l.back()->value, 1);
}

TEST(IntrusiveList, ForEachVisitsAll) {
  IntrusiveList<Item> l;
  Item a(1), b(2), c(3);
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  int sum = 0;
  l.for_each([&](Item* it) { sum += it->value; });
  EXPECT_EQ(sum, 6);
}

}  // namespace
}  // namespace ordma
