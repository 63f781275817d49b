// Integration tests for the extensions beyond the paper's prototype:
// ORDMA-served attribute reads (§4.2.2 motivates them; the paper never
// built them) and disk fault injection through the full read path.
#include <gtest/gtest.h>

#include <memory>

#include "core/cluster.h"

namespace ordma {
namespace {

using core::Cluster;
using core::ClusterConfig;

template <typename F>
void drive(Cluster& c, F&& body) {
  bool done = false;
  c.engine().spawn([](F body, bool& done) -> sim::Task<void> {
    co_await body();
    done = true;
  }(std::forward<F>(body), done));
  c.engine().run();
  ASSERT_TRUE(done) << "driver deadlocked";
}

nas::odafs::OdafsClientConfig odafs_cfg() {
  nas::odafs::OdafsClientConfig cfg;
  cfg.cache.block_size = KiB(4);
  cfg.cache.data_blocks = 32;
  cfg.cache.max_headers = 1 << 14;
  cfg.use_ordma = true;
  return cfg;
}

TEST(AttrOrdma, GetattrServedFromServerMemoryWithoutServerCpu) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(12) + 34, true);
  });
  auto client = c.make_odafs_client(0, odafs_cfg());

  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    EXPECT_TRUE(open.ok());

    const auto cpu0 = c.server().sample_cpu();
    for (int i = 0; i < 5; ++i) {
      auto attr = co_await client->getattr(open.value().fh);
      EXPECT_TRUE(attr.ok());
      EXPECT_EQ(attr.value().size, KiB(12) + 34);
      EXPECT_EQ(attr.value().ino, open.value().fh);
    }
    const auto cpu1 = c.server().sample_cpu();
    EXPECT_EQ(client->attr_ordma(), 5u);
    EXPECT_EQ((cpu1.busy - cpu0.busy).ns, 0);  // no server CPU at all
  });
}

TEST(AttrOrdma, AttributesStayFreshAcrossWrites) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  auto client = c.make_odafs_client(0, odafs_cfg());
  drive(c, [&]() -> sim::Task<void> {
    auto created = co_await client->create("grow");
    EXPECT_TRUE(created.ok());
    auto open = co_await client->open("grow");
    EXPECT_TRUE(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(8));

    for (Bytes target : {KiB(1), KiB(5), KiB(8)}) {
      auto n = co_await client->pwrite(open.value().fh, 0, buf, target);
      EXPECT_TRUE(n.ok());
      // The server re-marshals the record on each mutation; the ORDMA read
      // must see the new size immediately.
      auto attr = co_await client->getattr(open.value().fh);
      EXPECT_TRUE(attr.ok());
      EXPECT_EQ(attr.value().size, target);
    }
    EXPECT_GT(client->attr_ordma(), 0u);
  });
}

TEST(AttrOrdma, ReusedSlotDetectedAndFallsBackToRpc) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  auto client = c.make_odafs_client(0, odafs_cfg());
  auto client2 = c.make_odafs_client(0, odafs_cfg());
  drive(c, [&]() -> sim::Task<void> {
    // client opens "a" and holds its attr ref.
    co_await c.make_file("a", KiB(4), true, 1);
    auto open = co_await client->open("a");
    EXPECT_TRUE(open.ok());
    auto warm = co_await client->getattr(open.value().fh);
    EXPECT_TRUE(warm.ok());

    // Server-side: remove "a" (releases its attr slot) and create "b",
    // which reuses the slot with a different ino.
    EXPECT_TRUE(c.server_fs().remove(fs::ServerFs::kRootIno, "a").ok());
    co_await c.make_file("b", KiB(8), true, 2);
    (void)co_await client2->open("b");  // ensures b's record is marshalled

    // client's stale attribute reference must never yield b's attributes:
    // the embedded-ino check rejects the record and the client falls back
    // to RPC, which reports the file as gone.
    const auto attr_hits = client->attr_ordma();
    auto stale = co_await client->getattr(open.value().fh);
    EXPECT_FALSE(stale.ok());
    EXPECT_EQ(client->attr_ordma(), attr_hits);  // not served optimistically
  });
}

TEST(AttrOrdma, PlainDafsServerSendsNoAttrRefs) {
  Cluster c;
  c.start_dafs();  // piggyback_refs off
  auto client = c.make_odafs_client(0, odafs_cfg());
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(4), true);
    auto open = co_await client->open("f");
    EXPECT_TRUE(open.ok());
    auto attr = co_await client->getattr(open.value().fh);
    EXPECT_TRUE(attr.ok());
    EXPECT_EQ(client->attr_ordma(), 0u);  // RPC path used
  });
}

TEST(FaultInjection, DiskErrorPropagatesThroughDafsRead) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  cc.fs.cache_blocks = 8;  // small cache so reads hit the disk
  Cluster c(cc);
  c.start_dafs();
  auto client = c.make_dafs_client(0);
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(64), false);  // cold cache
    auto open = co_await client->open("f");
    EXPECT_TRUE(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(32));

    c.server_fs().disk().inject_failures(1000);
    auto n = co_await client->pread(open.value().fh, 0, buf, KiB(32));
    EXPECT_FALSE(n.ok());
    EXPECT_EQ(n.code(), Errc::io_error);

    // Once the medium recovers, the same read succeeds.
    c.server_fs().disk().inject_failures(0);
    auto ok = co_await client->pread(open.value().fh, 0, buf, KiB(32));
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), KiB(32));
  });
}

// op_giveup records in a host's flight ring: one per op that ran out of
// re-issues.
std::size_t flight_giveups(host::Host& h) {
  std::size_t n = 0;
  h.flight().for_each([&n](std::uint64_t, const obs::flight::Ring::Record& r) {
    if (r.code == obs::flight::Ev::op_giveup) ++n;
  });
  return n;
}

// A retry counts a re-issue, never the first attempt: an op that makes
// every attempt its budget allows records budget - 1 retries and one
// give-up, whichever client and path it runs through.
TEST(FaultInjection, DafsReadGiveUpCountsReissuesOnly) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  cc.fs.cache_blocks = 8;  // small cache so reads hit the disk
  Cluster c(cc);
  c.start_dafs();
  auto client = c.make_dafs_client(0);  // max_io_attempts = 4
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(64), false);  // cold cache
    auto open = co_await client->open("f");
    EXPECT_TRUE(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(32));

    c.server_fs().disk().inject_failures(1000);
    auto n = co_await client->pread(open.value().fh, 0, buf, KiB(32));
    EXPECT_EQ(n.code(), Errc::io_error);
    EXPECT_EQ(client->op_stats().retries, 3u);
    EXPECT_EQ(flight_giveups(h), 1u);
  });
}

TEST(FaultInjection, OdafsFetchGiveUpCountsReissuesOnly) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  cc.fs.cache_blocks = 8;
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  auto cfg = odafs_cfg();  // max_fetch_attempts = 3
  cfg.read_ahead_window = 1;
  auto client = c.make_odafs_client(0, cfg);
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(64), false);
    auto open = co_await client->open("f");
    EXPECT_TRUE(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(4));

    c.server_fs().disk().inject_failures(1000);
    auto n = co_await client->pread(open.value().fh, 0, buf, KiB(4));
    EXPECT_FALSE(n.ok());
    EXPECT_EQ(client->op_stats().retries, 2u);
    EXPECT_EQ(client->fetch_give_ups(), 1u);
    EXPECT_EQ(flight_giveups(h), 1u);
  });
}

TEST(FaultInjection, OdafsWriteReissuesCountAsRetries) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  cc.fs.cache_blocks = 8;
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  auto client = c.make_odafs_client(0, odafs_cfg());  // rpc_through
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(64), false);
    auto open = co_await client->open("f");
    EXPECT_TRUE(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(4));

    // A partial-block write makes the server read the block from disk.
    c.server_fs().disk().inject_failures(1000);
    auto n = co_await client->pwrite(open.value().fh, 100, buf, 200);
    EXPECT_FALSE(n.ok());
    EXPECT_EQ(client->op_stats().retries, 2u);
    EXPECT_EQ(flight_giveups(h), 1u);
  });
}

TEST(FaultInjection, OdafsSurfacesDiskErrorOnRpcFallback) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  cc.fs.cache_blocks = 8;
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  auto client = c.make_odafs_client(0, odafs_cfg());
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(64), false);
    auto open = co_await client->open("f");
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(16));

    c.server_fs().disk().inject_failures(1000);
    auto n = co_await client->pread(open.value().fh, 0, buf, KiB(16));
    EXPECT_FALSE(n.ok());
    c.server_fs().disk().inject_failures(0);
    auto ok = co_await client->pread(open.value().fh, 0, buf, KiB(16));
    EXPECT_TRUE(ok.ok());
  });
}

}  // namespace
}  // namespace ordma
