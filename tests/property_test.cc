// Property-based tests (parameterized over seeds): randomized operation
// sequences against reference models and invariants that must hold for any
// schedule.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "cache/client_cache.h"
#include "cache/policy.h"
#include "common/rng.h"
#include "host/host.h"
#include "nic/tpt.h"
#include "rpc/xdr.h"
#include "sim/channel.h"
#include "sim/engine.h"
#include "sim/resource.h"

namespace ordma {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

// --- Resource invariants under random concurrent load -----------------------

TEST_P(Seeded, ResourceNeverExceedsCapacityAndServesEveryone) {
  sim::Engine eng;
  Rng rng(GetParam());
  const unsigned capacity = 1 + rng.below(4);
  sim::Resource res(eng, capacity, "r");
  int completed = 0;
  bool over_capacity = false;
  const int kJobs = 60;

  for (int i = 0; i < kJobs; ++i) {
    eng.spawn([](sim::Engine& eng, sim::Resource& res, Duration start,
                 Duration hold, int& completed, bool& over,
                 unsigned capacity) -> sim::Task<void> {
      co_await eng.delay(start);
      co_await res.acquire();
      sim::Resource::ReleaseGuard guard(res);
      if (res.in_use() > capacity) over = true;
      co_await eng.delay(hold);
      ++completed;
    }(eng, res, usec(rng.below(200)), usec(1 + rng.below(50)), completed,
      over_capacity, capacity));
  }
  eng.run();
  EXPECT_EQ(completed, kJobs);
  EXPECT_FALSE(over_capacity);
  EXPECT_EQ(res.in_use(), 0u);
  EXPECT_EQ(res.queue_length(), 0u);
}

// --- Channel: no loss, no duplication, per-sender FIFO -----------------------

TEST_P(Seeded, ChannelDeliversEveryMessageExactlyOnceInSendOrder) {
  sim::Engine eng;
  Rng rng(GetParam());
  sim::Channel<int> ch(eng);
  std::vector<int> received;
  const int kMsgs = 200;

  eng.spawn([](sim::Channel<int>& ch, std::vector<int>& received)
                -> sim::Task<void> {
    for (int i = 0; i < kMsgs; ++i) received.push_back(co_await ch.recv());
  }(ch, received));
  // Senders fire at random times but tagged with a global sequence assigned
  // at send time, so ordering is checkable.
  auto shared_seq = std::make_shared<int>(0);
  for (int i = 0; i < kMsgs; ++i) {
    eng.schedule_fn(usec(rng.below(500)),
                    [&ch, shared_seq] { ch.send((*shared_seq)++); });
  }
  eng.run();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) EXPECT_EQ(received[i], i);
}

// --- Replacement policies: never lose or duplicate nodes --------------------

TEST_P(Seeded, PoliciesTrackEveryNodeExactlyOnce) {
  Rng rng(GetParam());
  for (const char* name : {"lru", "mq", "arc"}) {
    auto policy = cache::make_policy(name, 64);
    std::vector<std::unique_ptr<cache::PolicyNode>> nodes;
    std::set<cache::PolicyNode*> inside;

    for (int step = 0; step < 2000; ++step) {
      const auto op = rng.below(4);
      if (op == 0 || inside.empty()) {
        nodes.push_back(std::make_unique<cache::PolicyNode>());
        // Distinct identities so ARC's ghost lists behave as in the cache.
        nodes.back()->key = nodes.size();
        policy->insert(nodes.back().get());
        inside.insert(nodes.back().get());
      } else if (op == 1) {
        auto it = inside.begin();
        std::advance(it, rng.below(inside.size()));
        policy->touch(*it);
      } else if (op == 2) {
        auto it = inside.begin();
        std::advance(it, rng.below(inside.size()));
        policy->erase(*it);
        inside.erase(it);
      } else {
        cache::PolicyNode* v = policy->victim();
        if (inside.empty()) {
          EXPECT_EQ(v, nullptr) << name;
        } else {
          ASSERT_NE(v, nullptr) << name;
          EXPECT_TRUE(inside.count(v)) << name << ": victim not tracked";
        }
      }
    }
    // Drain: every tracked node must be evictable exactly once.
    std::size_t drained = 0;
    while (auto* v = policy->victim()) {
      ASSERT_TRUE(inside.count(v));
      policy->erase(v);
      inside.erase(v);
      ++drained;
      ASSERT_LE(drained, nodes.size());
    }
    EXPECT_TRUE(inside.empty()) << name;
  }
}

// --- ClientCache vs reference model ------------------------------------------

TEST_P(Seeded, ClientCacheMatchesReferenceModel) {
  sim::Engine eng;
  host::CostModel cm;
  host::Host hostm(eng, "c", cm, {MiB(64)});
  Rng rng(GetParam());

  cache::ClientCache::Config cfg;
  cfg.data_blocks = 8;
  cfg.block_size = 512;
  cfg.max_headers = 64;
  cache::ClientCache cc(hostm, cfg);

  // Reference: the last value written per key, if the cache claims to have
  // data it must match; refs_held must equal our count.
  std::map<cache::BlockKey, std::vector<std::byte>,
           decltype([](const cache::BlockKey& a, const cache::BlockKey& b) {
             return std::tie(a.file, a.idx) < std::tie(b.file, b.idx);
           })>
      model;

  for (int step = 0; step < 3000; ++step) {
    const cache::BlockKey key{1 + rng.below(3), rng.below(40)};
    const auto op = rng.below(3);
    if (op == 0) {
      // Write data.
      std::vector<std::byte> data(cfg.block_size);
      for (auto& b : data) b = static_cast<std::byte>(rng.below(256));
      auto& h = cc.ensure(key);
      cc.attach_data(h, data.size());
      cc.write_block(h, data);
      model[key] = std::move(data);
    } else if (op == 1) {
      // Read: if data present, it must be the last write.
      if (auto* h = cc.find(key); h && h->has_data() && model.count(key)) {
        std::vector<std::byte> got(cfg.block_size);
        cc.read_block(*h, got);
        EXPECT_EQ(got, model[key]);
      }
    } else {
      cc.set_ref(cc.ensure(key), cache::RemoteRef{rng.next(), 0, 512, {}});
    }
    EXPECT_LE(cc.headers(), cfg.max_headers);
  }
  // refs_held agrees with a direct scan.
  std::size_t refs = 0;
  for (std::uint64_t f = 1; f <= 3; ++f) {
    for (std::uint64_t i = 0; i < 40; ++i) {
      if (auto* h = cc.find(cache::BlockKey{f, i}); h && h->ref) ++refs;
    }
  }
  EXPECT_EQ(refs, cc.refs_held());
}

// --- XDR decoder: arbitrary truncation never reads out of bounds -------------

TEST_P(Seeded, XdrDecoderSurvivesRandomTruncation) {
  Rng rng(GetParam());
  rpc::XdrEncoder enc;
  enc.u32(42);
  enc.str("some name");
  std::vector<std::byte> payload(rng.below(300));
  enc.opaque(payload);
  enc.u64(rng.next());
  auto full = enc.take();

  for (int trial = 0; trial < 100; ++trial) {
    const auto cut = rng.below(full.size() + 1);
    rpc::XdrDecoder dec(
        std::span<const std::byte>(full.data(), cut));
    (void)dec.u32();
    (void)dec.str();
    (void)dec.opaque();
    (void)dec.u64();
    if (cut < full.size()) { EXPECT_FALSE(dec.ok()); }
  }
}

// --- TPT/TLB: pin accounting balances under random churn ---------------------

TEST_P(Seeded, TlbInsertEvictBalancesPins) {
  Rng rng(GetParam());
  nic::NicTlb tlb(8);
  std::map<mem::Vpn, int> pinned;  // modelled pin counts

  for (int step = 0; step < 1000; ++step) {
    const mem::Vpn vpn = rng.below(32);
    if (auto* e = tlb.lookup(vpn)) {
      (void)e;  // hit: nothing changes
      continue;
    }
    nic::NicTlb::Entry e;
    e.nic_vpn = vpn;
    e.seg_id = 1 + vpn / 4;
    e.host_vpn = vpn;
    ++pinned[vpn];
    if (auto evicted = tlb.insert(e)) --pinned[evicted->host_vpn];
    if (rng.chance(0.1)) {
      nic::Segment seg;  // segment k covers NIC pages [4(k-1), 4k)
      seg.id = 1 + rng.below(8);
      seg.nic_va = (seg.id - 1) * 4 * mem::kPageSize;
      seg.len = 4 * mem::kPageSize;
      for (const auto& victim : tlb.invalidate_segment(seg)) {
        --pinned[victim.host_vpn];
      }
    }
    EXPECT_LE(tlb.size(), tlb.capacity());
  }
  // Every pin not yet released corresponds to a live TLB entry.
  std::size_t live_pins = 0;
  for (const auto& [vpn, count] : pinned) {
    EXPECT_GE(count, 0);
    EXPECT_LE(count, 1);
    live_pins += count;
  }
  EXPECT_EQ(live_pins, tlb.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

}  // namespace
}  // namespace ordma
