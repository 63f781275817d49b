// Sharing oracle for the ORDMA write path: several clients hammer one file
// with whole-block self-describing writes while a shadow of every commit
// (version, writer, time, content fingerprint) is recorded off the server's
// commit observer. Every read is then checked against the commit history:
//
//  * no torn blocks — a block's bytes always decode to exactly one write;
//  * no stale committed reads — content may be observed only while it is
//    the latest committed version, OR while its write is still in flight
//    (optimistic puts place bytes before they commit, and write-back holds
//    dirty data locally), never after a newer commit's invalidations have
//    been acknowledged;
//  * no lost writes — the server's final content per block is the
//    highest-version commit's content.
//
// Runs across seeds, write policies (put_through, write_back, mixed with
// plain RPC write-through) and a revoke-during-put fault plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "nas/wire_util.h"

namespace ordma {
namespace {

using core::Cluster;
using core::ClusterConfig;
namespace odafs = nas::odafs;

constexpr Bytes kBlock = KiB(4);  // server block == client block
constexpr std::uint64_t kBlocks = 6;
constexpr Bytes kFileSize = kBlocks * kBlock;

// Self-describing whole-block content: the 64-bit write id in the first 8
// bytes, the remainder a keyed LCG stream. Decoding recovers the id;
// re-encoding and comparing catches torn (mixed-version) blocks.
std::vector<std::byte> encode_block(std::uint64_t id) {
  std::vector<std::byte> out(kBlock);
  for (unsigned i = 0; i < 8; ++i) {
    out[i] = static_cast<std::byte>((id >> (8 * i)) & 0xff);
  }
  std::uint64_t x = id * 0x9E3779B97F4A7C15ull + 1;
  for (Bytes i = 8; i < kBlock; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    out[i] = static_cast<std::byte>(x >> 56);
  }
  return out;
}

std::uint64_t decode_id(std::span<const std::byte> b) {
  std::uint64_t id = 0;
  for (unsigned i = 0; i < 8; ++i) {
    id |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  }
  return id;
}

struct CommitRec {
  std::uint64_t version = 0;
  std::uint64_t writer = 0;
  std::uint64_t t = 0;  // ns; post-invalidation-ack commit point
  std::uint32_t cksum = 0;
};

struct WriteRec {
  std::uint64_t id = 0;
  std::uint64_t t_start = 0;
  bool acked = false;  // pwrite returned success
};

struct ReadRec {
  unsigned client = 0;
  std::uint64_t block = 0;
  std::uint64_t id = 0;
  std::uint64_t t0 = 0, t1 = 0;
  bool torn = false;
};

struct Oracle {
  std::map<std::uint64_t, std::vector<CommitRec>> commits;  // block → log
  std::map<std::uint64_t, std::vector<WriteRec>> writes;    // block → writes
  std::map<std::uint32_t, std::uint64_t> id_by_cksum;
  std::vector<ReadRec> reads;

  void note_content(std::uint64_t id) {
    id_by_cksum[nas::data_checksum(encode_block(id))] = id;
  }

  // Was content `id` plausibly observable somewhere in [t0, t1]?
  bool observable(std::uint64_t block, std::uint64_t id, std::uint64_t t0,
                  std::uint64_t t1) const {
    auto wit = writes.find(block);
    if (wit == writes.end()) return false;
    bool placed = false;
    for (const auto& w : wit->second) {
      if (w.id == id && w.t_start <= t1) placed = true;
    }
    if (!placed) return false;
    // Highest version this content committed at (0 = uncommitted: an
    // optimistic put in flight or local dirty data — always allowed).
    std::uint64_t v = 0;
    auto cit = commits.find(block);
    if (cit == commits.end()) return true;
    for (const auto& cr : cit->second) {
      auto idit = id_by_cksum.find(cr.cksum);
      if (idit != id_by_cksum.end() && idit->second == id) {
        v = std::max(v, cr.version);
      }
    }
    if (v == 0) return true;
    // Obsolete once any higher version reaches its commit point: by then
    // every stale copy has acknowledged its invalidation.
    std::uint64_t obsolete_t = ~std::uint64_t{0};
    for (const auto& cr : cit->second) {
      if (cr.version > v) obsolete_t = std::min(obsolete_t, cr.t);
    }
    return obsolete_t >= t0;
  }
};

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

odafs::OdafsClientConfig client_cfg(odafs::WritePolicy policy) {
  odafs::OdafsClientConfig cfg;
  cfg.cache.block_size = kBlock;
  cfg.cache.data_blocks = 32;
  cfg.cache.max_headers = 1 << 14;
  cfg.use_ordma = true;
  cfg.write_policy = policy;
  return cfg;
}

struct RunConfig {
  std::uint64_t seed = 1;
  std::vector<odafs::WritePolicy> policies;  // one per client
  unsigned rounds = 40;
  bool faults = false;       // revoke-during-put + frame duplication
  bool strict_final = true;  // final content must be the last commit
};

void run_sharing_oracle(const RunConfig& rc) {
  ClusterConfig cc;
  cc.num_clients = static_cast<unsigned>(rc.policies.size());
  cc.fs.block_size = kBlock;
  if (rc.faults) {
    fault::FaultPlan plan;  // targeted: puts revoked mid-flight, dup frames
    plan.seed = rc.seed;
    plan.nic.put_cap_revoke = 0.05;
    plan.gm.duplicate = 0.02;
    cc.faults = plan;
  }
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true,
                .writable_refs = true,
                .coherence = true});

  Oracle oracle;
  fs::Ino ino = 0;

  // Setup: every block starts as a known write (id = 1000 + block).
  drive(c, [&]() -> sim::Task<void> {
    auto created =
        c.server_fs().create(fs::ServerFs::kRootIno, "f", fs::FileType::regular);
    ORDMA_CHECK(created.ok());
    ino = created.value();
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      const std::uint64_t id = 1000 + b;
      oracle.note_content(id);
      oracle.writes[b].push_back({id, 0, true});
      const auto bytes = encode_block(id);
      auto n = co_await c.server_fs().write(ino, b * kBlock, bytes);
      ORDMA_CHECK(n.ok() && n.value() == kBlock);
    }
    ORDMA_CHECK((co_await c.server_fs().warm(ino)).ok());
  });

  c.dafs_server().set_commit_observer(
      [&oracle](fs::Ino, std::uint64_t fbn, std::uint64_t version,
                std::uint64_t writer, SimTime when, std::uint32_t cksum) {
        oracle.commits[fbn].push_back(
            {version, writer, static_cast<std::uint64_t>(when.ns), cksum});
      });

  std::vector<std::unique_ptr<odafs::OdafsClient>> clients;
  for (unsigned i = 0; i < cc.num_clients; ++i) {
    clients.push_back(c.make_odafs_client(i, client_cfg(rc.policies[i])));
  }

  // Concurrent client mix: each client interleaves reads and whole-block
  // writes over a shared block set, driven by its own deterministic LCG.
  unsigned finished = 0;
  for (unsigned ci = 0; ci < cc.num_clients; ++ci) {
    c.engine().spawn([](Cluster& c, Oracle& oracle, odafs::OdafsClient& cl,
                        unsigned ci, const RunConfig& rc,
                        unsigned& finished) -> sim::Task<void> {
      std::uint64_t rng = rc.seed * 0x9E3779B97F4A7C15ull + ci + 1;
      auto next = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 16;
      };
      auto open = co_await cl.open("f");
      ORDMA_CHECK(open.ok());
      const std::uint64_t fh = open.value().fh;
      auto& h = c.client(ci);
      const mem::Vaddr buf = h.map_new(h.user_as(), kBlock);

      std::uint64_t seq = 0;
      for (unsigned r = 0; r < rc.rounds; ++r) {
        const std::uint64_t b = next() % kBlocks;
        if (next() % 2 == 0) {
          // Whole-block write with a globally unique, decodable id.
          const std::uint64_t id =
              (static_cast<std::uint64_t>(ci + 1) << 32) | ++seq;
          oracle.note_content(id);
          auto& rec =
              oracle.writes[b].emplace_back(WriteRec{id, 0, false});
          rec.t_start = c.engine().now().ns;
          const auto bytes = encode_block(id);
          ORDMA_CHECK(h.user_as().write(buf, bytes).ok());
          Result<Bytes> n = Errc::io_error;
          for (unsigned attempt = 0; attempt < 6 && !n.ok(); ++attempt) {
            n = co_await cl.pwrite(fh, b * kBlock, buf, kBlock);
          }
          if (!rc.faults) {
            EXPECT_TRUE(n.ok()) << "client " << ci << " write " << id;
          }
          // emplace_back reference may be stale after re-entrant writes:
          // find by id.
          for (auto& w : oracle.writes[b]) {
            if (w.id == id) w.acked = n.ok();
          }
        } else {
          const std::uint64_t t0 = c.engine().now().ns;
          auto n = co_await cl.pread(fh, b * kBlock, buf, kBlock);
          const std::uint64_t t1 = c.engine().now().ns;
          if (!rc.faults) { EXPECT_TRUE(n.ok()); }
          if (!n.ok()) continue;
          // The file never shrinks: an ok read returns every byte asked.
          EXPECT_EQ(n.value(), kBlock)
              << "client " << ci << " short read of block " << b;
          if (n.value() != kBlock) continue;
          std::vector<std::byte> got(kBlock);
          ORDMA_CHECK(h.user_as().read(buf, got).ok());
          const std::uint64_t id = decode_id(got);
          oracle.reads.push_back(
              {ci, b, id, t0, t1, got != encode_block(id)});
        }
      }
      auto st = co_await cl.sync();
      if (!rc.faults) { EXPECT_TRUE(st.ok()); }
      st = co_await cl.close(fh);
      if (!rc.faults) { EXPECT_TRUE(st.ok()); }
      ++finished;
    }(c, oracle, *clients[ci], ci, rc, finished));
  }
  c.engine().run();
  ASSERT_EQ(finished, cc.num_clients) << "a client coroutine deadlocked";

  // --- the oracle ----------------------------------------------------------
  // Commit versions per block form a contiguous chain, and every committed
  // content is one of the issued writes (no torn or invented bytes reached
  // a commit point). The observer log is in commit-point order, which may
  // differ from version order when two commits' invalidation rounds
  // overlap — sort by version before checking the chain.
  for (auto& [block, log] : oracle.commits) {
    std::sort(log.begin(), log.end(),
              [](const CommitRec& a, const CommitRec& b) {
                return a.version < b.version;
              });
    std::uint64_t expect = 1;
    for (const auto& cr : log) {
      EXPECT_EQ(cr.version, expect++) << "block " << block;
      EXPECT_TRUE(oracle.id_by_cksum.count(cr.cksum))
          << "block " << block << " v" << cr.version
          << " committed unknown content";
    }
  }
  // No torn reads, no stale committed reads.
  for (const auto& rd : oracle.reads) {
    EXPECT_FALSE(rd.torn) << "client " << rd.client << " block " << rd.block
                          << " read torn content (id " << rd.id << ")";
    if (rd.torn) continue;
    EXPECT_TRUE(oracle.observable(rd.block, rd.id, rd.t0, rd.t1))
        << "client " << rd.client << " read stale/unknown id " << rd.id
        << " on block " << rd.block << " at [" << rd.t0 << ", " << rd.t1
        << "]";
  }

  // Zero lost writes: final server content per block is the highest-version
  // commit's content (initial content where nothing ever committed).
  drive(c, [&]() -> sim::Task<void> {
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      std::vector<std::byte> got(kBlock);
      auto n = co_await c.server_fs().read(ino, b * kBlock, got);
      EXPECT_TRUE(n.ok() && n.value() == kBlock) << "final read, block " << b;
      if (!n.ok() || n.value() != kBlock) continue;
      const std::uint64_t id = decode_id(got);
      EXPECT_EQ(got, encode_block(id)) << "final block " << b << " torn";
      auto cit = oracle.commits.find(b);
      if (cit == oracle.commits.end() || cit->second.empty()) {
        EXPECT_EQ(id, 1000 + b) << "block " << b;
      } else if (rc.strict_final) {
        const auto& last = cit->second.back();
        auto idit = oracle.id_by_cksum.find(last.cksum);
        EXPECT_TRUE(idit != oracle.id_by_cksum.end());
        if (idit != oracle.id_by_cksum.end()) {
          EXPECT_EQ(id, idit->second)
              << "block " << b << ": final content is not the last commit";
        }
      } else {
        // Faulty runs may leave a placed-but-never-committed put as the
        // final bytes; it must still be one of the issued writes.
        bool known = false;
        for (const auto& w : oracle.writes[b]) known |= w.id == id;
        EXPECT_TRUE(known) << "block " << b << " holds invented bytes";
      }
    }
  });

  // The run must have actually exercised sharing: at least one commit and,
  // in coherence mode with >1 client, at least one invalidation.
  std::size_t total_commits = 0;
  for (const auto& [block, log] : oracle.commits) total_commits += log.size();
  EXPECT_GT(total_commits, 0u);
  if (cc.num_clients > 1 && !rc.faults) {
    EXPECT_GT(c.dafs_server().invalidations_sent(), 0u);
  }
}

TEST(SharingOracle, PutThroughMultiClient) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    run_sharing_oracle({.seed = seed,
                        .policies = {odafs::WritePolicy::put_through,
                                     odafs::WritePolicy::put_through,
                                     odafs::WritePolicy::put_through}});
  }
}

TEST(SharingOracle, WriteBackMultiClient) {
  for (const std::uint64_t seed : {3ull, 11ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    run_sharing_oracle({.seed = seed,
                        .policies = {odafs::WritePolicy::write_back,
                                     odafs::WritePolicy::write_back,
                                     odafs::WritePolicy::write_back}});
  }
}

TEST(SharingOracle, MixedPoliciesShareOneTruth) {
  for (const std::uint64_t seed : {5ull, 23ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    run_sharing_oracle({.seed = seed,
                        .policies = {odafs::WritePolicy::put_through,
                                     odafs::WritePolicy::write_back,
                                     odafs::WritePolicy::rpc_through}});
  }
}

TEST(SharingOracle, RevokeDuringPutStaysCoherent) {
  for (const std::uint64_t seed : {2ull, 13ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    run_sharing_oracle({.seed = seed,
                        .policies = {odafs::WritePolicy::put_through,
                                     odafs::WritePolicy::write_back},
                        .rounds = 30,
                        .faults = true,
                        .strict_final = false});
  }
}

TEST(SharingOracle, SingleClientPutThroughIsSequential) {
  // Degenerate sharing: one writer — every read must observe exactly the
  // latest commit (its own writes), the strictest form of the oracle.
  run_sharing_oracle(
      {.seed = 9, .policies = {odafs::WritePolicy::put_through}});
}

TEST(SharingOracle, MultiBlockReadRefetchesBlockDroppedDuringHit) {
  // A cache hit charges its CPU time before the bytes are copied out, and
  // an invalidation whose pickup is queued ahead of that charge drops the
  // block in between. The read must fetch the block again, not stop short
  // mid-file. Client 0 reads the whole cached file while client 1 rewrites
  // block kVictim. A CPU hog starts on client 0 the instant it looks up the
  // block before kVictim, so client 0's next copy waits behind the hog and
  // the invalidation's pickup queues between that copy and the hit on
  // kVictim.
  constexpr std::uint64_t kVictim = 3;
  constexpr std::uint64_t kNewId = 7777;
  ClusterConfig cc;
  cc.num_clients = 2;
  cc.fs.block_size = kBlock;
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true,
                .writable_refs = true,
                .coherence = true});
  drive(c, [&]() -> sim::Task<void> {
    auto ino = c.server_fs().create(fs::ServerFs::kRootIno, "f",
                                    fs::FileType::regular);
    ORDMA_CHECK(ino.ok());
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      auto n = co_await c.server_fs().write(ino.value(), b * kBlock,
                                            encode_block(1000 + b));
      ORDMA_CHECK(n.ok());
    }
    ORDMA_CHECK((co_await c.server_fs().warm(ino.value())).ok());
  });

  auto reader_cfg = client_cfg(odafs::WritePolicy::put_through);
  reader_cfg.read_ahead_window = 1;  // one block after another
  auto reader = c.make_odafs_client(0, reader_cfg);
  auto writer =
      c.make_odafs_client(1, client_cfg(odafs::WritePolicy::rpc_through));
  host::Host& rh = c.client(0);
  host::Host& wh = c.client(1);
  const mem::Vaddr rbuf = rh.map_new(rh.user_as(), kFileSize);
  const mem::Vaddr wbuf = wh.map_new(wh.user_as(), kBlock);
  ASSERT_TRUE(wh.user_as().write(wbuf, encode_block(kNewId)).ok());
  std::uint64_t rfh = 0, wfh = 0;
  drive(c, [&]() -> sim::Task<void> {
    auto ro = co_await reader->open("f");
    auto wo = co_await writer->open("f");
    ORDMA_CHECK(ro.ok() && wo.ok());
    rfh = ro.value().fh;
    wfh = wo.value().fh;
    // Warm the reader's cache; the server now counts it a holder of every
    // block.
    auto n = co_await reader->pread(rfh, 0, rbuf, kFileSize);
    ORDMA_CHECK(n.ok() && n.value() == kFileSize);
  });

  Result<Bytes> got = Errc::io_error;
  Result<Bytes> wrote = Errc::io_error;
  const std::uint64_t hits0 = reader->block_cache().data_hits();
  c.engine().spawn([](Cluster& c, odafs::OdafsClient& reader,
                      odafs::OdafsClient& writer, std::uint64_t hits0,
                      std::uint64_t wfh, mem::Vaddr wbuf,
                      Result<Bytes>& wrote) -> sim::Task<void> {
    // Poll (bounded) for the reader's lookup of the block before kVictim.
    for (int i = 0; reader.block_cache().data_hits() < hits0 + kVictim;
         ++i) {
      if (i == 100000) co_return;  // never got there: `wrote` stays failed
      co_await c.engine().delay(nsec(50));
    }
    c.engine().spawn([](host::Host& h) -> sim::Task<void> {
      co_await h.cpu_consume(msec(1));
    }(c.client(0)));
    wrote = co_await writer.pwrite(wfh, kVictim * kBlock, wbuf, kBlock);
  }(c, *reader, *writer, hits0, wfh, wbuf, wrote));
  drive(c, [&]() -> sim::Task<void> {
    got = co_await reader->pread(rfh, 0, rbuf, kFileSize);
  });

  ASSERT_TRUE(wrote.ok());
  EXPECT_GE(reader->inval_drops(), 1u);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), kFileSize)
      << "the read stopped at the block dropped during its hit";
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    std::vector<std::byte> bytes(kBlock);
    ASSERT_TRUE(rh.user_as().read(rbuf + b * kBlock, bytes).ok());
    const std::uint64_t id = decode_id(bytes);
    EXPECT_EQ(bytes, encode_block(id)) << "block " << b << " torn";
    if (b == kVictim) {
      EXPECT_TRUE(id == 1000 + b || id == kNewId) << "block " << b;
    } else {
      EXPECT_EQ(id, 1000 + b) << "block " << b;
    }
  }
}

}  // namespace
}  // namespace ordma
