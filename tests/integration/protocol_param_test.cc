// Parameterized cross-protocol conformance tests: every FileClient variant
// must satisfy the same contract — byte-exact reads at arbitrary offsets,
// short reads at EOF, zero-length I/O, create/unlink semantics — over the
// full simulated stack.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/cluster.h"

namespace ordma {
namespace {

using core::Cluster;
using core::ClusterConfig;

enum class Proto { nfs, prepost, hybrid, dafs, dafs_inline, odafs, cached_dafs };

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::nfs: return "nfs";
    case Proto::prepost: return "prepost";
    case Proto::hybrid: return "hybrid";
    case Proto::dafs: return "dafs";
    case Proto::dafs_inline: return "dafs_inline";
    case Proto::odafs: return "odafs";
    case Proto::cached_dafs: return "cached_dafs";
  }
  return "?";
}

std::vector<std::byte> file_pattern(Bytes size, std::uint64_t seed = 1) {
  std::vector<std::byte> out(size);
  std::uint64_t x = seed;
  for (Bytes i = 0; i < size; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    out[i] = static_cast<std::byte>(x >> 56);
  }
  return out;
}

struct Rig {
  explicit Rig(Proto p) {
    ClusterConfig cc;
    cc.fs.block_size = KiB(4);
    cluster = std::make_unique<Cluster>(cc);
    switch (p) {
      case Proto::nfs:
        cluster->start_nfs();
        client = cluster->make_nfs_client(0, KiB(32));
        break;
      case Proto::prepost:
        cluster->start_nfs();
        client = cluster->make_prepost_client(0, KiB(32));
        break;
      case Proto::hybrid:
        cluster->start_nfs();
        client = cluster->make_hybrid_client(0, KiB(32));
        break;
      case Proto::dafs:
        cluster->start_dafs();
        client = cluster->make_dafs_client(0);
        break;
      case Proto::dafs_inline: {
        cluster->start_dafs();
        nas::dafs::DafsClientConfig cfg;
        cfg.direct_reads = false;
        client = cluster->make_dafs_client(0, cfg);
        break;
      }
      case Proto::odafs:
      case Proto::cached_dafs: {
        cluster->start_dafs({.piggyback_refs = true});
        nas::odafs::OdafsClientConfig cfg;
        cfg.cache.block_size = KiB(4);
        cfg.cache.data_blocks = 24;
        cfg.cache.max_headers = 1 << 14;
        cfg.use_ordma = p == Proto::odafs;
        client = cluster->make_odafs_client(0, cfg);
        break;
      }
    }
  }

  template <typename F>
  void drive(F&& body) {
    bool done = false;
    cluster->engine().spawn([](F body, bool& done) -> sim::Task<void> {
      co_await body();
      done = true;
    }(std::forward<F>(body), done));
    cluster->engine().run();
    ASSERT_TRUE(done) << "driver deadlocked";
  }

  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<core::FileClient> client;
};

class ProtocolConformance : public ::testing::TestWithParam<Proto> {};

TEST_P(ProtocolConformance, ReadsExactBytesAtArbitraryOffsets) {
  Rig rig(GetParam());
  const Bytes fsize = KiB(96) + 321;
  const auto expect = file_pattern(fsize);
  rig.drive([&]() -> sim::Task<void> {
    co_await rig.cluster->make_file("f", fsize, true);
    auto open = co_await rig.client->open("f");
    EXPECT_TRUE(open.ok());
    auto& h = rig.cluster->client(0);
    // Offsets chosen to hit: block-aligned, straddling, tail, sub-block.
    const std::pair<Bytes, Bytes> cases[] = {
        {0, KiB(4)},          {KiB(4), KiB(8)},       {123, 4567},
        {KiB(32) - 1, KiB(8)}, {fsize - 100, 100},    {KiB(64) + 7, 1},
        {0, fsize},
    };
    for (const auto& [off, len] : cases) {
      const mem::Vaddr buf = h.map_new(h.user_as(), len);
      auto n = co_await rig.client->pread(open.value().fh, off, buf, len);
      EXPECT_TRUE(n.ok());
      if (!n.ok()) continue;
      EXPECT_EQ(n.value(), len) << "off=" << off << " len=" << len;
      std::vector<std::byte> got(n.value());
      EXPECT_TRUE(h.user_as().read(buf, got).ok());
      EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin() + off))
          << "off=" << off << " len=" << len;
    }
  });
}

TEST_P(ProtocolConformance, ShortReadAtEofAndZeroLength) {
  Rig rig(GetParam());
  const Bytes fsize = KiB(10) + 77;
  rig.drive([&]() -> sim::Task<void> {
    co_await rig.cluster->make_file("f", fsize, true);
    auto open = co_await rig.client->open("f");
    EXPECT_TRUE(open.ok());
    auto& h = rig.cluster->client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(8));

    auto short_read =
        co_await rig.client->pread(open.value().fh, fsize - 50, buf, KiB(8));
    EXPECT_TRUE(short_read.ok());
    EXPECT_EQ(short_read.value(), 50u);

    auto at_eof = co_await rig.client->pread(open.value().fh, fsize, buf,
                                             KiB(8));
    EXPECT_TRUE(at_eof.ok());
    EXPECT_EQ(at_eof.value(), 0u);

    auto past_eof = co_await rig.client->pread(open.value().fh,
                                               fsize + KiB(64), buf, KiB(4));
    EXPECT_TRUE(past_eof.ok());
    EXPECT_EQ(past_eof.value(), 0u);
  });
}

TEST_P(ProtocolConformance, WriteThenReadBackAcrossBlocks) {
  Rig rig(GetParam());
  const auto data = file_pattern(KiB(20) + 11, 9);
  rig.drive([&]() -> sim::Task<void> {
    auto created = co_await rig.client->create("w");
    EXPECT_TRUE(created.ok());
    auto& h = rig.cluster->client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), data.size());
    EXPECT_TRUE(h.user_as().write(buf, data).ok());
    auto n = co_await rig.client->pwrite(created.value().fh, 0, buf,
                                         data.size());
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(n.value(), data.size());

    const mem::Vaddr rbuf = h.map_new(h.user_as(), data.size());
    auto r = co_await rig.client->pread(created.value().fh, 0, rbuf,
                                        data.size());
    EXPECT_TRUE(r.ok());
    std::vector<std::byte> got(data.size());
    EXPECT_TRUE(h.user_as().read(rbuf, got).ok());
    EXPECT_EQ(got, data);

    // Overwrite a straddling range and re-verify.
    const auto patch = file_pattern(KiB(6), 17);
    const mem::Vaddr pbuf = h.map_new(h.user_as(), patch.size());
    EXPECT_TRUE(h.user_as().write(pbuf, patch).ok());
    auto w2 = co_await rig.client->pwrite(created.value().fh, KiB(3), pbuf,
                                          patch.size());
    EXPECT_TRUE(w2.ok());
    auto r2 = co_await rig.client->pread(created.value().fh, 0, rbuf,
                                         data.size());
    EXPECT_TRUE(r2.ok());
    EXPECT_TRUE(h.user_as().read(rbuf, got).ok());
    for (Bytes i = 0; i < data.size(); ++i) {
      const std::byte want = (i >= KiB(3) && i < KiB(3) + patch.size())
                                 ? patch[i - KiB(3)]
                                 : data[i];
      EXPECT_EQ(got[i], want) << "offset " << i;
    }
  });
}

TEST_P(ProtocolConformance, OpenMissingFileFails) {
  Rig rig(GetParam());
  rig.drive([&]() -> sim::Task<void> {
    auto open = co_await rig.client->open("nope");
    EXPECT_FALSE(open.ok());
    EXPECT_EQ(open.code(), Errc::not_found);
  });
}

TEST_P(ProtocolConformance, GetattrReportsSize) {
  Rig rig(GetParam());
  const Bytes fsize = KiB(12) + 5;
  rig.drive([&]() -> sim::Task<void> {
    co_await rig.cluster->make_file("f", fsize, true);
    auto open = co_await rig.client->open("f");
    EXPECT_TRUE(open.ok());
    EXPECT_EQ(open.value().size, fsize);
    auto attr = co_await rig.client->getattr(open.value().fh);
    EXPECT_TRUE(attr.ok());
    EXPECT_EQ(attr.value().size, fsize);
  });
}

TEST_P(ProtocolConformance, UnlinkRemovesFile) {
  Rig rig(GetParam());
  rig.drive([&]() -> sim::Task<void> {
    auto created = co_await rig.client->create("gone");
    EXPECT_TRUE(created.ok());
    EXPECT_TRUE((co_await rig.client->unlink("gone")).ok());
    auto open = co_await rig.client->open("gone");
    EXPECT_FALSE(open.ok());
  });
}

TEST_P(ProtocolConformance, CreateUnderMissingDirectoryFails) {
  Rig rig(GetParam());
  rig.drive([&]() -> sim::Task<void> {
    auto created = co_await rig.client->create("nodir/f");
    EXPECT_FALSE(created.ok());
    EXPECT_EQ(created.code(), Errc::not_found);
    // Nothing may have been created anywhere else instead.
    auto open = co_await rig.client->open("f");
    EXPECT_FALSE(open.ok());
    EXPECT_EQ(open.code(), Errc::not_found);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolConformance,
    ::testing::Values(Proto::nfs, Proto::prepost, Proto::hybrid, Proto::dafs,
                      Proto::dafs_inline, Proto::odafs, Proto::cached_dafs),
    [](const ::testing::TestParamInfo<Proto>& info) {
      return proto_name(info.param);
    });

}  // namespace
}  // namespace ordma
