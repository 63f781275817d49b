// Unit tests for XDR marshalling, the RPC layer (including the RDDP-RPC
// pre-posted direct placement path) and the request-matching and
// duplicate-suppression types it shares with DAFS.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "host/host.h"
#include "msg/udp.h"
#include "net/fabric.h"
#include "nic/nic.h"
#include "rpc/call_table.h"
#include "rpc/reply_cache.h"
#include "rpc/rpc.h"
#include "rpc/xdr.h"
#include "sim/engine.h"

namespace ordma::rpc {
namespace {

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 41 + seed) & 0xff);
  }
  return v;
}

TEST(Xdr, IntegerRoundTrip) {
  XdrEncoder enc;
  enc.u32(0xDEADBEEF);
  enc.u64(0x0123456789ABCDEFull);
  enc.i64(-42);
  auto buf = enc.finish();
  XdrDecoder dec(buf);
  EXPECT_EQ(dec.u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.i64(), -42);
  EXPECT_TRUE(dec.ok());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(Xdr, BigEndianOnTheWire) {
  XdrEncoder enc;
  enc.u32(0x01020304);
  auto buf = enc.finish();
  const auto v = buf.view();
  EXPECT_EQ(v[0], std::byte{1});
  EXPECT_EQ(v[3], std::byte{4});
}

TEST(Xdr, OpaqueAndStringRoundTrip) {
  XdrEncoder enc;
  enc.str("hello/world");
  const auto data = pattern(100);
  enc.opaque(data);
  auto buf = enc.finish();
  XdrDecoder dec(buf);
  EXPECT_EQ(dec.str(), "hello/world");
  auto got = dec.opaque();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));
  EXPECT_TRUE(dec.ok());
}

TEST(Xdr, TruncatedInputFailsSafely) {
  XdrEncoder enc;
  enc.u32(5);  // claims 5-byte opaque follows, but nothing does
  auto buf = enc.finish();
  XdrDecoder dec(buf);
  auto got = dec.opaque();
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(dec.ok());
}

class RpcTest : public ::testing::Test {
 public:
  sim::Engine eng_;
  host::CostModel cm_;
  net::Fabric fabric_{eng_};
  host::Host hc_{eng_, "client", cm_};  // NOLINT
  host::Host hs_{eng_, "server", cm_};
  nic::Nic nc_{hc_, fabric_, {}, crypto::SipKey{1, 2}};
  nic::Nic ns_{hs_, fabric_, {}, crypto::SipKey{3, 4}};
  msg::UdpStack stc_{hc_};
  msg::UdpStack sts_{hs_};
};

TEST_F(RpcTest, EchoCall) {
  RpcServer server(hs_, sts_, 2049);
  server.register_handler(7, [](const RpcCallCtx& ctx)
                                 -> sim::Task<RpcServerReply> {
    RpcServerReply r;
    r.results.u32(static_cast<std::uint32_t>(ctx.args.size()));
    r.results.raw(ctx.args.view());
    co_return r;
  });
  RpcClient client(hc_, stc_, 900);

  std::optional<RpcReplyInfo> got;
  eng_.spawn([](RpcClient& client, net::NodeId server,
                std::optional<RpcReplyInfo>& got) -> sim::Task<void> {
    XdrEncoder args;
    args.str("ping");
    auto res = co_await client.call(server, 2049, 7, args.finish());
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    got = res.value();
  }(client, ns_.node_id(), got));
  eng_.run();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 0u);
  XdrDecoder dec(got->results);
  EXPECT_EQ(dec.u32(), 8u);  // "ping" as XDR string: len + 4 bytes
  XdrDecoder inner(dec.rest());
  EXPECT_EQ(inner.str(), "ping");
}

TEST_F(RpcTest, UnknownProcReturnsNotSupported) {
  RpcServer server(hs_, sts_, 2049);
  RpcClient client(hc_, stc_, 900);
  std::optional<std::uint32_t> status;
  eng_.spawn([](RpcClient& client, net::NodeId server,
                std::optional<std::uint32_t>& status) -> sim::Task<void> {
    auto res = co_await client.call(server, 2049, 99, net::Buffer());
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    status = res.value().status;
  }(client, ns_.node_id(), status));
  eng_.run();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, static_cast<std::uint32_t>(Errc::not_supported));
}

TEST_F(RpcTest, ConcurrentCallsMatchByXid) {
  RpcServer server(hs_, sts_, 2049);
  server.register_handler(1, [this](const RpcCallCtx& ctx)
                                 -> sim::Task<RpcServerReply> {
    XdrDecoder dec(ctx.args);
    const std::uint32_t v = dec.u32();
    // Vary service time inversely with v so replies come back out of order.
    co_await hs_.engine().delay(usec(100 - v * 10));
    RpcServerReply r;
    r.results.u32(v * 2);
    co_return r;
  });
  RpcClient client(hc_, stc_, 900);

  std::vector<std::uint32_t> results(5, 0);
  for (std::uint32_t i = 0; i < 5; ++i) {
    eng_.spawn([](RpcClient& client, net::NodeId server, std::uint32_t i,
                  std::vector<std::uint32_t>& results) -> sim::Task<void> {
      XdrEncoder args;
      args.u32(i);
      auto res = co_await client.call(server, 2049, 1, args.finish());
      EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
      XdrDecoder dec(res.value().results);
      results[i] = dec.u32();
    }(client, ns_.node_id(), i, results));
  }
  eng_.run();
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(results[i], i * 2);
}

TEST_F(RpcTest, PrepostedCallPlacesBulkDataDirectly) {
  const auto payload = pattern(KiB(32), 9);
  RpcServer server(hs_, sts_, 2049);
  server.register_handler(2, [&](const RpcCallCtx&)
                                 -> sim::Task<RpcServerReply> {
    RpcServerReply r;
    r.results.u32(static_cast<std::uint32_t>(payload.size()));
    r.bulk = net::Buffer::copy_of(payload);
    co_return r;
  });
  RpcClient client(hc_, stc_, 900);

  const mem::Vaddr va = hc_.map_new(hc_.user_as(), payload.size());
  bool placed = false;
  eng_.spawn([](RpcTest* t, RpcClient& client, net::NodeId server,
                mem::Vaddr va, Bytes len, bool& placed) -> sim::Task<void> {
    Prepost pp{&t->hc_.user_as(), va, len};
    auto res = co_await client.call(server, 2049, 2, net::Buffer(), &pp);
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    placed = res.value().rddp_placed;
    EXPECT_EQ(res.value().rddp_data_len, len);
    XdrDecoder dec(res.value().results);
    EXPECT_EQ(dec.u32(), len);
  }(this, client, ns_.node_id(), va, payload.size(), placed));
  eng_.run();

  EXPECT_TRUE(placed);
  std::vector<std::byte> got(payload.size());
  ASSERT_TRUE(hc_.user_as().read(va, got).ok());
  EXPECT_EQ(got, payload);
}

TEST_F(RpcTest, BulkWithoutPrepostArrivesInline) {
  const auto payload = pattern(KiB(8), 3);
  RpcServer server(hs_, sts_, 2049);
  server.register_handler(2, [&](const RpcCallCtx&)
                                 -> sim::Task<RpcServerReply> {
    RpcServerReply r;
    r.bulk = net::Buffer::copy_of(payload);
    co_return r;
  });
  RpcClient client(hc_, stc_, 900);

  std::vector<std::byte> got;
  eng_.spawn([](RpcClient& client, net::NodeId server,
                std::vector<std::byte>& got) -> sim::Task<void> {
    auto res = co_await client.call(server, 2049, 2, net::Buffer());
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    EXPECT_FALSE(res.value().rddp_placed);
    const auto v = res.value().results.view();
    got.assign(v.begin(), v.end());
  }(client, ns_.node_id(), got));
  eng_.run();
  EXPECT_EQ(got, payload);
}

// Stamp an RPC message's end-to-end checksum: CRC-32 over everything but
// the cksum word, stored big-endian in it.
void stamp_cksum(std::vector<std::byte>& m) {
  const std::span<const std::byte> v(m);
  std::uint32_t ck = checksum32(v.first(kRpcCksumOffset));
  ck = checksum32(v.subspan(kRpcHeaderBytes), ck);
  for (int i = 0; i < 4; ++i) {
    m[kRpcCksumOffset + i] = static_cast<std::byte>(ck >> (8 * (3 - i)));
  }
}

TEST_F(RpcTest, ReplyCacheReplaysTheSealedReplyBytes) {
  // One call sent twice from a bare socket: the first reply is assembled in
  // front of the handler's bulk, the second replayed from the duplicate
  // cache (which shares it, so UDP copies it). Both carry exactly the
  // wire format's bytes: xid | 1 | status | trace | cksum | results | bulk.
  const auto bulk = pattern(KiB(8), 6);
  RpcServer server(hs_, sts_, 2049);
  int executed = 0;
  server.register_handler(3, [&](const RpcCallCtx&)
                                 -> sim::Task<RpcServerReply> {
    ++executed;
    RpcServerReply r;
    r.results.u32(static_cast<std::uint32_t>(bulk.size()));
    r.bulk = net::Buffer::copy_of(bulk);
    co_return r;
  });

  XdrEncoder call;
  for (std::uint32_t w : {41u, kRpcCall, 3u, 5u, 0u}) call.u32(w);
  auto call_bytes = call.take();
  stamp_cksum(call_bytes);

  XdrEncoder want;
  for (std::uint32_t w : {41u, kRpcReply, 0u, 5u, 0u}) want.u32(w);
  want.u32(static_cast<std::uint32_t>(bulk.size()));
  want.raw(bulk);
  auto want_bytes = want.take();
  stamp_cksum(want_bytes);

  auto& sock = stc_.bind(900);
  std::vector<std::vector<std::byte>> replies;
  eng_.spawn([](msg::UdpStack::Socket& sock, net::NodeId server,
                const std::vector<std::byte>& call,
                std::vector<std::vector<std::byte>>& replies)
                 -> sim::Task<void> {
    for (int i = 0; i < 2; ++i) {
      co_await sock.send_to(server, 2049, net::Buffer::copy_of(call));
      const msg::UdpDatagram d = co_await sock.recv();
      replies.emplace_back(d.data.view().begin(), d.data.view().end());
    }
  }(sock, ns_.node_id(), call_bytes, replies));
  eng_.run();

  EXPECT_EQ(executed, 1);
  EXPECT_EQ(server.dup_replays(), 1u);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], want_bytes);
  EXPECT_EQ(replies[1], want_bytes);
}

// --- CallTable ---------------------------------------------------------------

TEST(CallTable, ReplyForAnIdWithNoLiveRequestIsDropped) {
  sim::Engine eng;
  CallTable<int> calls(eng);
  EXPECT_FALSE(calls.deliver(1, 10));  // never opened
  const std::uint32_t id = calls.open();
  EXPECT_EQ(id, 1u);
  EXPECT_FALSE(calls.deliver(id, 10));  // open, but no attempt armed
  calls.arm(id);
  calls.close(id);
  EXPECT_FALSE(calls.deliver(id, 10));  // answered or abandoned: late
  EXPECT_EQ(calls.live(), 0u);
}

TEST(CallTable, SecondReplyWithinOneAttemptIsDropped) {
  sim::Engine eng;
  CallTable<int> calls(eng);
  const std::uint32_t id = calls.open();
  auto& done = calls.arm(id);
  EXPECT_TRUE(calls.deliver(id, 1));
  EXPECT_FALSE(calls.deliver(id, 2));  // a duplicate of the same reply
  ASSERT_TRUE(done.is_set());
  EXPECT_EQ(done.peek(), 1);
}

TEST(CallTable, ReplyDuringARetransmissionsWaitCompletesTheCurrentAttempt) {
  // Attempt 1 times out at 10 us; the reply (to either attempt — the wire
  // cannot tell them apart) lands at 15 us, inside attempt 2's wait.
  sim::Engine eng;
  CallTable<int> calls(eng);
  const std::uint32_t id = calls.open();
  std::vector<std::optional<int>> got;
  SimTime answered_at{};
  eng.spawn([](CallTable<int>& calls, std::uint32_t id, sim::Engine& eng,
               std::vector<std::optional<int>>& got,
               SimTime& answered_at) -> sim::Task<void> {
    for (int attempt = 0; attempt < 2; ++attempt) {
      auto& done = calls.arm(id);
      got.push_back(co_await done.wait_for(usec(10)));
    }
    answered_at = eng.now();
    calls.close(id);
  }(calls, id, eng, got, answered_at));
  eng.spawn([](CallTable<int>& calls, std::uint32_t id,
               sim::Engine& eng) -> sim::Task<void> {
    co_await eng.delay(usec(15));
    EXPECT_TRUE(calls.deliver(id, 7));
  }(calls, id, eng));
  eng.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(got[0].has_value());
  EXPECT_EQ(got[1], std::optional<int>(7));
  EXPECT_EQ(answered_at.ns, usec(15).ns);
  EXPECT_EQ(calls.live(), 0u);
}

TEST(CallTable, EmptyAfterABurstOfAnsweredAndAbandonedRequests) {
  sim::Engine eng;
  CallTable<void> calls(eng);
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(calls.open());
    calls.arm(ids.back());
    if (i % 3 != 0) {
      EXPECT_TRUE(calls.deliver(ids.back()));  // answered
    }
  }
  EXPECT_EQ(calls.live(), 2000u);
  for (const auto id : ids) calls.close(id);
  EXPECT_EQ(calls.live(), 0u);
  EXPECT_EQ(calls.issued(), 2000u);
  EXPECT_EQ(calls.open(), 2001u);  // ids are never reused
}

// --- ReplyCache --------------------------------------------------------------

using Cache = ReplyCache<std::string>;

TEST(ReplyCache, DuplicateOfAnExecutingRequestIsDropped) {
  Cache cache;
  EXPECT_EQ(cache.admit(5).verdict, Cache::Verdict::execute);
  EXPECT_EQ(cache.admit(5).verdict, Cache::Verdict::drop);
  EXPECT_EQ(cache.admit(5).verdict, Cache::Verdict::drop);
}

TEST(ReplyCache, DuplicateOfAnAnsweredRequestReplaysTheStoredBytes) {
  Cache cache;
  ASSERT_EQ(cache.admit(5).verdict, Cache::Verdict::execute);
  cache.answer(5, "reply-bytes", 11);
  const auto seen = cache.admit(5);
  ASSERT_EQ(seen.verdict, Cache::Verdict::replay);
  EXPECT_EQ(*seen.reply, "reply-bytes");
  EXPECT_EQ(cache.admit(5).verdict, Cache::Verdict::replay);  // every time
}

TEST(ReplyCache, ReplyOver64KBIsNotKept) {
  Cache cache;
  cache.admit(1);
  cache.answer(1, "at the limit", Cache::kMaxReplyBytes);
  cache.admit(2);
  cache.answer(2, "over the limit", Cache::kMaxReplyBytes + 1);
  EXPECT_EQ(cache.admit(1).verdict, Cache::Verdict::replay);
  EXPECT_EQ(cache.admit(2).verdict, Cache::Verdict::execute);  // runs again
}

TEST(ReplyCache, The257thAnsweredReplyEvictsTheOldest) {
  Cache cache;
  for (std::uint64_t k = 1; k <= Cache::kMaxAnswered + 1; ++k) {
    ASSERT_EQ(cache.admit(k).verdict, Cache::Verdict::execute);
    cache.answer(k, std::to_string(k), 8);
  }
  EXPECT_EQ(Cache::kMaxAnswered, 256u);
  EXPECT_EQ(cache.admit(2).verdict, Cache::Verdict::replay);
  EXPECT_EQ(cache.admit(257).verdict, Cache::Verdict::replay);
  EXPECT_EQ(cache.admit(1).verdict, Cache::Verdict::execute);  // evicted
}

TEST(ReplyCache, AnExecutingEntrySurvivesEviction) {
  Cache cache;
  ASSERT_EQ(cache.admit(1000).verdict, Cache::Verdict::execute);
  for (std::uint64_t k = 1; k <= 3 * Cache::kMaxAnswered; ++k) {
    cache.admit(k);
    cache.answer(k, "r", 1);
  }
  EXPECT_EQ(cache.admit(1000).verdict, Cache::Verdict::drop);
  cache.answer(1000, "late", 4);
  EXPECT_EQ(cache.admit(1000).verdict, Cache::Verdict::replay);
}

}  // namespace
}  // namespace ordma::rpc
