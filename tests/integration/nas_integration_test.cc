// Cross-module integration tests: every protocol client moves the right
// bytes end-to-end through NIC, fabric, RPC/VI and the server file system;
// ODAFS's optimistic path and its exception fallback preserve correctness.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cluster.h"

namespace ordma {
namespace {

using core::Cluster;
using core::ClusterConfig;

// Must match Cluster::make_file's generator exactly (one running LCG).
std::vector<std::byte> file_pattern(Bytes size, std::uint64_t seed = 1) {
  std::vector<std::byte> out(size);
  std::uint64_t x = seed;
  for (Bytes i = 0; i < size; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    out[i] = static_cast<std::byte>(x >> 56);
  }
  return out;
}

// Drive a coroutine to completion.
template <typename F>
void drive(Cluster& c, F&& body) {
  bool done = false;
  c.engine().spawn([](F body, bool& done) -> sim::Task<void> {
    co_await body();
    done = true;
  }(std::forward<F>(body), done));
  c.engine().run();
  ASSERT_TRUE(done) << "driver did not finish (deadlock?)";
}

// Generic end-to-end read check for any FileClient.
void check_read_roundtrip(Cluster& c, core::FileClient& client,
                          const std::string& fname, Bytes fsize) {
  const auto expect = file_pattern(fsize);
  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client.open(fname);
    EXPECT_TRUE(open.ok());
    if (!open.ok()) co_return;
    EXPECT_EQ(open.value().size, fsize);

    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), fsize);
    auto n = co_await client.pread(open.value().fh, 0, buf, fsize);
    EXPECT_TRUE(n.ok());
    if (!n.ok()) co_return;
    EXPECT_EQ(n.value(), fsize);

    std::vector<std::byte> got(fsize);
    EXPECT_TRUE(h.user_as().read(buf, got).ok());
    EXPECT_EQ(got, expect);
    EXPECT_TRUE((co_await client.close(open.value().fh)).ok());
  });
}

TEST(NasIntegration, NfsStandardReadsExactBytes) {
  Cluster c;
  c.start_nfs();
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(200) + 123, /*warm=*/true);
  });
  auto client = c.make_nfs_client(0, KiB(64));
  check_read_roundtrip(c, *client, "f", KiB(200) + 123);
}

TEST(NasIntegration, NfsReadsReassembleInPlace) {
  // A calm fabric delivers each 64 KB reply's fragments in order, so both
  // NICs join every message's fragments into one view of the sent buffer.
  Cluster c;
  c.start_nfs();
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(256), /*warm=*/true);
  });
  auto client = c.make_nfs_client(0, KiB(64));
  check_read_roundtrip(c, *client, "f", KiB(256));
  EXPECT_EQ(c.client_nic().reassembly_copies(), 0u);
  EXPECT_EQ(c.server_nic().reassembly_copies(), 0u);
}

TEST(NasIntegration, DamagedFramesAreReassembledByCopy) {
  // A frame the fault injector damages arrives as a fresh copy, so its
  // message cannot be joined in place: the NIC copies it (and counts it),
  // the RPC checksum rejects the damage, and a retransmission repairs it.
  fault::FaultPlan plan;  // escaped Ethernet corruption only
  plan.seed = 7;
  plan.eth.corrupt = 0.05;
  plan.eth.corrupt_escape = 1.0;
  ClusterConfig cc;
  cc.faults = plan;
  cc.rpc_retry.timeout = msec(2);
  cc.rpc_retry.max_attempts = 8;
  Cluster c(cc);
  c.start_nfs();
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(512), /*warm=*/true);
  });
  auto client = c.make_nfs_client(0, KiB(64));
  check_read_roundtrip(c, *client, "f", KiB(512));
  EXPECT_GT(c.fault_injector()->frames_corrupted(), 0u);
  EXPECT_GT(c.client_nic().reassembly_copies(), 0u);
}

TEST(NasIntegration, NfsPrepostReadsExactBytes) {
  Cluster c;
  c.start_nfs();
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(200) + 123, true);
  });
  auto client = c.make_prepost_client(0, KiB(64));
  check_read_roundtrip(c, *client, "f", KiB(200) + 123);
}

TEST(NasIntegration, NfsHybridReadsExactBytes) {
  Cluster c;
  c.start_nfs();
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(200) + 123, true);
  });
  auto client = c.make_hybrid_client(0, KiB(64));
  check_read_roundtrip(c, *client, "f", KiB(200) + 123);
  // One registration per distinct 64 KB chunk range of the buffer; the
  // registration cache prevents re-registration when the buffer is reused.
  const auto regs = client->registrations();
  EXPECT_LE(regs, 4u);
  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    EXPECT_TRUE(open.ok());
    // check_read_roundtrip used the most recent map_new region; reuse a
    // fresh buffer once, then read it again — only the first read of this
    // buffer may add registrations.
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(200) + 123);
    (void)co_await client->pread(open.value().fh, 0, buf, KiB(200) + 123);
    const auto after_first = client->registrations();
    (void)co_await client->pread(open.value().fh, 0, buf, KiB(200) + 123);
    EXPECT_EQ(client->registrations(), after_first);
  });
}

TEST(NasIntegration, NfsWriteReadBack) {
  Cluster c;
  c.start_nfs();
  auto client = c.make_nfs_client(0, KiB(64));
  const auto data = file_pattern(KiB(100), 7);
  drive(c, [&]() -> sim::Task<void> {
    auto created = co_await client->create("new.dat");
    EXPECT_TRUE(created.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), data.size());
    EXPECT_TRUE(h.user_as().write(buf, data).ok());
    auto n = co_await client->pwrite(created.value().fh, 0, buf, data.size());
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(n.value(), data.size());

    const mem::Vaddr rbuf = h.map_new(h.user_as(), data.size());
    auto r = co_await client->pread(created.value().fh, 0, rbuf, data.size());
    EXPECT_TRUE(r.ok());
    std::vector<std::byte> got(data.size());
    EXPECT_TRUE(h.user_as().read(rbuf, got).ok());
    EXPECT_EQ(got, data);
  });
}

TEST(NasIntegration, DafsDirectReadsExactBytes) {
  Cluster c;
  c.start_dafs();
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(300) + 5, true);
  });
  auto client = c.make_dafs_client(0);
  check_read_roundtrip(c, *client, "f", KiB(300) + 5);
}

TEST(NasIntegration, DafsInlineReadsExactBytes) {
  Cluster c;
  c.start_dafs();
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(64) + 9, true);
  });
  nas::dafs::DafsClientConfig cfg;
  cfg.direct_reads = false;
  auto client = c.make_dafs_client(0, cfg);
  check_read_roundtrip(c, *client, "f", KiB(64) + 9);
}

TEST(NasIntegration, DafsWriteDirectRoundTrip) {
  Cluster c;
  c.start_dafs();
  auto client = c.make_dafs_client(0);
  const auto data = file_pattern(KiB(48), 3);
  drive(c, [&]() -> sim::Task<void> {
    auto created = co_await client->create("w.dat");
    EXPECT_TRUE(created.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), data.size());
    EXPECT_TRUE(h.user_as().write(buf, data).ok());
    auto n = co_await client->pwrite(created.value().fh, 0, buf, data.size());
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(n.value(), data.size());
    const mem::Vaddr rbuf = h.map_new(h.user_as(), data.size());
    auto r = co_await client->pread(created.value().fh, 0, rbuf, data.size());
    EXPECT_TRUE(r.ok());
    std::vector<std::byte> got(data.size());
    EXPECT_TRUE(h.user_as().read(rbuf, got).ok());
    EXPECT_EQ(got, data);
  });
}

TEST(NasIntegration, DafsOpenDelegationMakesReopenLocal) {
  Cluster c;
  c.start_dafs();
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(4), true);
  });
  auto client = c.make_dafs_client(0);
  drive(c, [&]() -> sim::Task<void> {
    auto o1 = co_await client->open("f");
    EXPECT_TRUE(o1.ok());
    const auto rpcs = client->rpcs_issued();
    auto o2 = co_await client->open("f");  // delegated: local
    EXPECT_TRUE(o2.ok());
    EXPECT_EQ(client->rpcs_issued(), rpcs);
    EXPECT_TRUE((co_await client->close(o2.value().fh)).ok());
    EXPECT_EQ(client->rpcs_issued(), rpcs);  // close local too
  });
}

TEST(NasIntegration, DafsBatchIoReadsManyExtentsInOneRpc) {
  Cluster c;
  c.start_dafs();
  const Bytes fsize = KiB(64);
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", fsize, true);
  });
  const auto expect = file_pattern(fsize);
  auto client = c.make_dafs_client(0);
  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    EXPECT_TRUE(open.ok());
    auto& h = c.client(0);
    const Bytes chunk = KiB(8);
    const mem::Vaddr buf = h.map_new(h.user_as(), fsize);
    auto reg = co_await client->ensure_registered(buf, fsize);
    EXPECT_TRUE(reg.ok());

    std::vector<nas::dafs::DafsClient::BatchEntry> entries;
    for (Bytes off = 0; off < fsize; off += chunk) {
      entries.push_back({open.value().fh, off, chunk,
                         reg.value()->nic_va(buf + off), reg.value()->cap});
    }
    const auto rpcs_before = client->rpcs_issued();
    auto ns = co_await client->read_batch(entries);
    EXPECT_TRUE(ns.ok());
    EXPECT_EQ(client->rpcs_issued(), rpcs_before + 1);  // one RPC total
    for (auto n : ns.value()) EXPECT_EQ(n, chunk);

    std::vector<std::byte> got(fsize);
    EXPECT_TRUE(h.user_as().read(buf, got).ok());
    EXPECT_EQ(got, expect);
  });
}

// --- ODAFS ------------------------------------------------------------------

nas::odafs::OdafsClientConfig small_cache_cfg(bool use_ordma,
                                              Bytes block = KiB(4),
                                              std::size_t blocks = 16) {
  nas::odafs::OdafsClientConfig cfg;
  cfg.cache.block_size = block;
  cfg.cache.data_blocks = blocks;
  cfg.cache.max_headers = 1 << 16;
  cfg.use_ordma = use_ordma;
  return cfg;
}

TEST(NasIntegration, OdafsSecondPassUsesOrdma) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  cc.fs.cache_blocks = 8192;
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  const Bytes fsize = KiB(256);  // 64 blocks ≫ 16-block client cache
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", fsize, true);
  });
  const auto expect = file_pattern(fsize);
  auto client = c.make_odafs_client(0, small_cache_cfg(true));

  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    EXPECT_TRUE(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), fsize);

    // Pass 1: all RPC (no refs yet); collects references.
    auto n1 = co_await client->pread(open.value().fh, 0, buf, fsize);
    EXPECT_TRUE(n1.ok());
    EXPECT_EQ(n1.value(), fsize);
    EXPECT_EQ(client->ordma_reads(), 0u);
    EXPECT_GT(client->rpc_reads(), 0u);
    EXPECT_GT(client->block_cache().refs_held(), 0u);

    // Pass 2: cache too small to hold data, but headers hold refs → ORDMA.
    const auto rpc_before = client->rpc_reads();
    auto n2 = co_await client->pread(open.value().fh, 0, buf, fsize);
    EXPECT_TRUE(n2.ok());
    EXPECT_GT(client->ordma_reads(), 0u);
    EXPECT_EQ(client->ordma_faults(), 0u);
    EXPECT_EQ(client->rpc_reads(), rpc_before);  // no RPCs needed

    std::vector<std::byte> got(fsize);
    EXPECT_TRUE(h.user_as().read(buf, got).ok());
    EXPECT_EQ(got, expect);
  });
}

TEST(NasIntegration, OdafsGetsReassembleInPlace) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  cc.fs.cache_blocks = 8192;
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  const Bytes fsize = KiB(256);
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", fsize, true);
  });
  const auto expect = file_pattern(fsize);
  auto client = c.make_odafs_client(0, small_cache_cfg(true));
  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    EXPECT_TRUE(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), fsize);
    for (int pass = 0; pass < 2; ++pass) {  // RPC fills, then ORDMA gets
      auto n = co_await client->pread(open.value().fh, 0, buf, fsize);
      EXPECT_TRUE(n.ok());
    }
    std::vector<std::byte> got(fsize);
    EXPECT_TRUE(h.user_as().read(buf, got).ok());
    EXPECT_EQ(got, expect);
  });
  EXPECT_GT(client->ordma_reads(), 0u);
  EXPECT_EQ(c.client_nic().reassembly_copies(), 0u);
  EXPECT_EQ(c.server_nic().reassembly_copies(), 0u);
}

TEST(NasIntegration, OrdmaIdleServerCpuOnSecondPass) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  const Bytes fsize = KiB(128);
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", fsize, true);
  });
  auto client = c.make_odafs_client(0, small_cache_cfg(true));
  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), fsize);
    (void)co_await client->pread(open.value().fh, 0, buf, fsize);

    const auto before = c.server().sample_cpu();
    (void)co_await client->pread(open.value().fh, 0, buf, fsize);
    const auto after = c.server().sample_cpu();
    // "ODAFS uses no server CPU after it manages to collect remote memory
    // references for the entire server cache" (§5.2).
    EXPECT_EQ((after.busy - before.busy).ns, 0);
  });
}

TEST(NasIntegration, OdafsStaleRefFaultsThenRecoversViaRpc) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  cc.fs.cache_blocks = 32;  // tiny server cache → eviction pressure
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  // 32 file blocks ≫ the 16-block client cache, so re-reads need ORDMA.
  const Bytes fsize = KiB(128);
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", fsize, true);
    co_await c.make_file("g", KiB(256), false);  // eviction driver
  });
  const auto expect = file_pattern(fsize);
  auto client = c.make_odafs_client(0, small_cache_cfg(true));
  auto client2 = c.make_odafs_client(0, small_cache_cfg(false));

  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), fsize);
    (void)co_await client->pread(open.value().fh, 0, buf, fsize);
    EXPECT_GT(client->block_cache().refs_held(), 0u);

    // Evict f's blocks from the *server* cache by streaming g through it.
    auto og = co_await client2->open("g");
    const mem::Vaddr gbuf = h.map_new(h.user_as(), KiB(256));
    (void)co_await client2->pread(og.value().fh, 0, gbuf, KiB(256));

    // Now f's refs are stale: ORDMA must fault (never return wrong bytes)
    // and the client must transparently recover via RPC.
    auto n = co_await client->pread(open.value().fh, 0, buf, fsize);
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(n.value(), fsize);
    EXPECT_GT(client->ordma_faults(), 0u);

    std::vector<std::byte> got(fsize);
    EXPECT_TRUE(h.user_as().read(buf, got).ok());
    EXPECT_EQ(got, expect);  // correctness held through the fault path
  });
}

TEST(NasIntegration, OdafsWriteThroughKeepsCoherence) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(16), true);
  });
  auto client = c.make_odafs_client(0, small_cache_cfg(true));
  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(16));
    (void)co_await client->pread(open.value().fh, 0, buf, KiB(16));

    // Overwrite the middle through the same client.
    std::vector<std::byte> patch(KiB(4), std::byte{0xEE});
    const mem::Vaddr pbuf = h.map_new(h.user_as(), patch.size());
    EXPECT_TRUE(h.user_as().write(pbuf, patch).ok());
    auto w = co_await client->pwrite(open.value().fh, KiB(4), pbuf,
                                     patch.size());
    EXPECT_TRUE(w.ok());

    // Read back via ORDMA (refs still valid: server updated in place).
    auto n = co_await client->pread(open.value().fh, 0, buf, KiB(16));
    EXPECT_TRUE(n.ok());
    std::vector<std::byte> got(KiB(16));
    EXPECT_TRUE(h.user_as().read(buf, got).ok());
    for (Bytes i = KiB(4); i < KiB(8); ++i) {
      EXPECT_EQ(got[i], std::byte{0xEE}) << "offset " << i;
    }
  });
}

TEST(NasIntegration, CachedDafsDoesNotUseOrdma) {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", KiB(64), true);
  });
  auto client = c.make_odafs_client(0, small_cache_cfg(false));
  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(64));
    (void)co_await client->pread(open.value().fh, 0, buf, KiB(64));
    (void)co_await client->pread(open.value().fh, 0, buf, KiB(64));
    EXPECT_EQ(client->ordma_reads(), 0u);
    EXPECT_GT(client->rpc_reads(), 0u);
  });
}

}  // namespace
}  // namespace ordma
