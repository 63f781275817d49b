// Unit tests for the NIC: GM messaging, ORDMA get/put with capabilities and
// faults, TPT/TLB pin semantics, Ethernet pre-posting with header split.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "host/host.h"
#include "net/fabric.h"
#include "nic/nic.h"
#include "nic/reassembly.h"
#include "sim/engine.h"

namespace ordma::nic {
namespace {

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 37 + seed) & 0xff);
  }
  return v;
}

// Fragment i of `msg` cut at `mtu`, as a sending NIC cuts it: a view of
// the message buffer.
net::Packet fragment(const net::Buffer& msg, std::uint32_t i, Bytes mtu) {
  net::Packet p;
  p.frag_count = static_cast<std::uint32_t>((msg.size() + mtu - 1) / mtu);
  p.frag_index = i;
  p.msg_total = msg.size();
  const Bytes off = i * mtu;
  p.payload = msg.slice(off, std::min<Bytes>(mtu, msg.size() - off));
  return p;
}

// Feed fragments of `msg` in `order` through one Reassembly, placing each
// at its offset, and return the delivered message.
net::Buffer reassemble(Reassembly& r, const net::Buffer& msg, Bytes mtu,
                       const std::vector<std::uint32_t>& order) {
  for (std::uint32_t i : order) {
    const net::Packet p = fragment(msg, i, mtu);
    if (r.admit(p)) r.place(i * mtu, p.payload);
  }
  EXPECT_TRUE(r.complete());
  return r.take();
}

TEST(Reassembly, InOrderFragmentsJoinIntoOneViewOfTheSendersBuffer) {
  const auto data = pattern(10000, 2);
  const net::Buffer msg = net::Buffer::copy_of(data);
  Reassembly r;
  const net::Buffer got = reassemble(r, msg, 4096, {0, 1, 2});
  EXPECT_FALSE(r.copied());
  EXPECT_EQ(got.view().data(), msg.view().data());  // no copy made
  EXPECT_TRUE(std::ranges::equal(got.view(), data));
}

TEST(Reassembly, DuplicatedFragmentsAreAdmittedOnce) {
  const auto data = pattern(10000, 3);
  const net::Buffer msg = net::Buffer::copy_of(data);
  Reassembly r;
  const net::Packet first = fragment(msg, 0, 4096);
  ASSERT_TRUE(r.admit(first));
  r.place(0, first.payload);
  EXPECT_FALSE(r.admit(first));  // a duplicated frame
  EXPECT_FALSE(r.complete());
  const net::Buffer got = reassemble(r, msg, 4096, {1, 1, 2, 0});
  EXPECT_FALSE(r.copied());
  EXPECT_TRUE(std::ranges::equal(got.view(), data));
}

TEST(Reassembly, ReorderedFragmentsAreCopiedExactly) {
  const auto data = pattern(20000, 4);
  const net::Buffer msg = net::Buffer::copy_of(data);
  for (const auto& order : std::vector<std::vector<std::uint32_t>>{
           {1, 0, 2, 3, 4}, {0, 2, 1, 4, 3}, {4, 3, 2, 1, 0}}) {
    Reassembly r;
    const net::Buffer got = reassemble(r, msg, 4096, order);
    EXPECT_TRUE(r.copied());
    EXPECT_TRUE(std::ranges::equal(got.view(), data));
  }
}

TEST(Reassembly, ReplacedFragmentsAreCopiedAsTheyArrived) {
  // The fault injector replaces a damaged frame's payload with a copy: the
  // message carries exactly the bytes that arrived, flipped bit included.
  const auto data = pattern(10000, 5);
  const net::Buffer msg = net::Buffer::copy_of(data);
  for (std::uint32_t bad : {0u, 1u, 2u}) {
    Reassembly r;
    auto expect = data;
    for (std::uint32_t i = 0; i < 3; ++i) {
      net::Packet p = fragment(msg, i, 4096);
      if (i == bad) {
        auto bytes = std::vector<std::byte>(p.payload.view().begin(),
                                            p.payload.view().end());
        bytes[7] ^= std::byte{0x10};
        expect[i * 4096 + 7] ^= std::byte{0x10};
        p.payload = net::Buffer::copy_of(bytes);
      }
      ASSERT_TRUE(r.admit(p));
      r.place(i * 4096, p.payload);
    }
    ASSERT_TRUE(r.complete());
    const net::Buffer got = r.take();
    EXPECT_TRUE(std::ranges::equal(got.view(), expect)) << "bad " << bad;
    EXPECT_TRUE(r.copied());
  }
}

class NicTest : public ::testing::Test {
 protected:
  sim::Engine eng_;
  host::CostModel cm_;
  net::Fabric fabric_{eng_};
  std::optional<host::Host> ha_, hb_;
  std::optional<Nic> na_, nb_;

  void make_hosts(NicConfig cfg = {}) {
    ha_.emplace(eng_, "a", cm_);
    hb_.emplace(eng_, "b", cm_);
    na_.emplace(*ha_, fabric_, cfg, crypto::SipKey{1, 2});
    nb_.emplace(*hb_, fabric_, cfg, crypto::SipKey{3, 4});
  }

  void SetUp() override { make_hosts(); }

  // Map + fill a buffer in host b's user space; export it; return cap.
  crypto::Capability export_buffer(const std::vector<std::byte>& data,
                                   crypto::SegPerm perm, bool pin_now = true) {
    const mem::Vaddr va = hb_->map_new(hb_->user_as(), data.size());
    ORDMA_CHECK(hb_->user_as().write(va, data).ok());
    auto cap = nb_->export_segment(hb_->user_as(), va, data.size(), perm,
                                   pin_now);
    ORDMA_CHECK(cap.ok());
    exported_va_ = va;
    return cap.value();
  }

  mem::Vaddr exported_va_ = 0;
};

TEST_F(NicTest, GmSendDeliversExactBytesAcrossFragments) {
  auto& port = nb_->open_port(7);
  const auto data = pattern(20000);  // 5 GM fragments

  std::optional<Nic::GmMessage> got;
  eng_.spawn([](sim::Channel<Nic::GmMessage>& port,
                std::optional<Nic::GmMessage>& got) -> sim::Task<void> {
    got = co_await port.recv();
  }(port, got));
  eng_.spawn(na_->gm_send(nb_->node_id(), 7, 42,
                          net::Buffer::copy_of(data)));
  eng_.run();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, na_->node_id());
  EXPECT_EQ(got->user_tag, 42u);
  const auto v = got->data.view();
  ASSERT_EQ(v.size(), data.size());
  EXPECT_TRUE(std::equal(v.begin(), v.end(), data.begin()));
}

TEST_F(NicTest, GmSendZeroLengthMessage) {
  auto& port = nb_->open_port(1);
  std::optional<Nic::GmMessage> got;
  eng_.spawn([](sim::Channel<Nic::GmMessage>& port,
                std::optional<Nic::GmMessage>& got) -> sim::Task<void> {
    got = co_await port.recv();
  }(port, got));
  eng_.spawn(na_->gm_send(nb_->node_id(), 1, 9, net::Buffer()));
  eng_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data.size(), 0u);
}

TEST_F(NicTest, GetReadsExportedMemory) {
  const auto data = pattern(8192);
  const auto cap = export_buffer(data, crypto::SegPerm::read);

  Result<net::Buffer> res = Errc::timed_out;
  eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                Result<net::Buffer>& out) -> sim::Task<void> {
    out = co_await nic.gm_get(dst, cap.base, cap.length, cap);
  }(*na_, nb_->node_id(), cap, res));
  eng_.run();

  ASSERT_TRUE(res.ok());
  const auto v = res.value().view();
  ASSERT_EQ(v.size(), data.size());
  EXPECT_TRUE(std::equal(v.begin(), v.end(), data.begin()));
  EXPECT_EQ(nb_->ordma_served(), 1u);
  EXPECT_EQ(nb_->ordma_faults(), 0u);
}

TEST_F(NicTest, GetSubRangeWithinSegment) {
  const auto data = pattern(8192);
  const auto cap = export_buffer(data, crypto::SegPerm::read);

  Result<net::Buffer> res = Errc::timed_out;
  eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                Result<net::Buffer>& out) -> sim::Task<void> {
    out = co_await nic.gm_get(dst, cap.base + 1000, 2000, cap);
  }(*na_, nb_->node_id(), cap, res));
  eng_.run();
  ASSERT_TRUE(res.ok());
  const auto v = res.value().view();
  ASSERT_EQ(v.size(), 2000u);
  EXPECT_TRUE(std::equal(v.begin(), v.end(), data.begin() + 1000));
}

TEST_F(NicTest, GetBeyondSegmentFaults) {
  const auto cap = export_buffer(pattern(4096), crypto::SegPerm::read);
  Result<net::Buffer> res = Errc::timed_out;
  eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                Result<net::Buffer>& out) -> sim::Task<void> {
    out = co_await nic.gm_get(dst, cap.base + 2048, 4096, cap);
  }(*na_, nb_->node_id(), cap, res));
  eng_.run();
  EXPECT_EQ(res.code(), Errc::access_fault);
  EXPECT_EQ(nb_->ordma_faults(), 1u);
}

TEST_F(NicTest, ForgedCapabilityRejected) {
  auto cap = export_buffer(pattern(4096), crypto::SegPerm::read);
  cap.length = 1 << 20;  // forged: widen the grant without re-MAC
  Result<net::Buffer> res = Errc::timed_out;
  eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                Result<net::Buffer>& out) -> sim::Task<void> {
    out = co_await nic.gm_get(dst, cap.base, 4096, cap);
  }(*na_, nb_->node_id(), cap, res));
  eng_.run();
  EXPECT_EQ(res.code(), Errc::revoked);
}

TEST_F(NicTest, RevokedSegmentFaultsFutureGets) {
  const auto cap = export_buffer(pattern(4096), crypto::SegPerm::read);
  nb_->revoke_segment(cap.segment_id);
  Result<net::Buffer> res = Errc::timed_out;
  eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                Result<net::Buffer>& out) -> sim::Task<void> {
    out = co_await nic.gm_get(dst, cap.base, cap.length, cap);
  }(*na_, nb_->node_id(), cap, res));
  eng_.run();
  EXPECT_EQ(res.code(), Errc::access_fault);
}

TEST_F(NicTest, RevokedSegmentPutLeavesMemoryUntouched) {
  // Isolation half of revocation: a put against a revoked capability must
  // fail with access_fault AND leave the target bytes exactly as they were
  // — no partial DMA, even for a multi-fragment transfer.
  const auto initial = pattern(20000, 3);
  const auto cap = export_buffer(initial, crypto::SegPerm::read_write);
  nb_->revoke_segment(cap.segment_id);

  Status st = Status::Ok();
  eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                Status& out) -> sim::Task<void> {
    out = co_await nic.gm_put(dst, cap.base,
                              net::Buffer::copy_of(pattern(20000, 9)), cap);
  }(*na_, nb_->node_id(), cap, st));
  eng_.run();

  EXPECT_EQ(st.code(), Errc::access_fault);
  std::vector<std::byte> now(initial.size());
  ASSERT_TRUE(hb_->user_as().read(exported_va_, now).ok());
  EXPECT_TRUE(now == initial) << "revoked put landed bytes";
}

TEST_F(NicTest, MidTransferRevokeNeverPartiallyLands) {
  // Revoke while the put's fragments are still on the wire. The target NIC
  // resolves the capability only after full reassembly, so the transfer
  // must either land completely (revoke arrived too late) or not at all —
  // and with the revoke scheduled before the first fragment's delivery it
  // must be not-at-all, surfaced as access_fault.
  const auto initial = pattern(20000, 3);
  const auto cap = export_buffer(initial, crypto::SegPerm::read_write);

  Status st = Status::Ok();
  eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                Status& out) -> sim::Task<void> {
    out = co_await nic.gm_put(dst, cap.base,
                              net::Buffer::copy_of(pattern(20000, 9)), cap);
  }(*na_, nb_->node_id(), cap, st));
  // 20000 bytes at 2 Gb/s is tens of microseconds of serialisation; 1 us is
  // comfortably before the first fragment is delivered.
  eng_.schedule_fn(usec(1), [this, &cap] { nb_->revoke_segment(cap.segment_id); });
  eng_.run();

  EXPECT_EQ(st.code(), Errc::access_fault);
  std::vector<std::byte> now(initial.size());
  ASSERT_TRUE(hb_->user_as().read(exported_va_, now).ok());
  EXPECT_TRUE(now == initial) << "partial DMA from a mid-transfer revoke";
}

TEST_F(NicTest, RevokeUnpinsPages) {
  const auto cap = export_buffer(pattern(8192), crypto::SegPerm::read);
  // Registration (pin_now) pinned both pages via TLB residency.
  EXPECT_EQ(hb_->user_as().lookup(mem::page_of(exported_va_))->pin_count, 1);
  nb_->revoke_segment(cap.segment_id);
  EXPECT_EQ(hb_->user_as().lookup(mem::page_of(exported_va_))->pin_count, 0);
  EXPECT_EQ(
      hb_->user_as().lookup(mem::page_of(exported_va_) + 1)->pin_count, 0);
}

TEST_F(NicTest, PutWritesRemoteMemory) {
  const auto initial = pattern(4096, 1);
  const auto cap = export_buffer(initial, crypto::SegPerm::read_write);
  const auto update = pattern(512, 9);

  Status st(Errc::timed_out);
  eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                net::Buffer data, Status& out) -> sim::Task<void> {
    out = co_await nic.gm_put(dst, cap.base + 100, std::move(data), cap);
  }(*na_, nb_->node_id(), cap, net::Buffer::copy_of(update), st));
  eng_.run();

  ASSERT_TRUE(st.ok());
  std::vector<std::byte> now(4096);
  ASSERT_TRUE(hb_->user_as().read(exported_va_, now).ok());
  for (std::size_t i = 0; i < 4096; ++i) {
    const std::byte expect =
        (i >= 100 && i < 612) ? update[i - 100] : initial[i];
    ASSERT_EQ(now[i], expect) << "offset " << i;
  }
}

TEST_F(NicTest, PutToReadOnlySegmentFaults) {
  const auto cap = export_buffer(pattern(4096), crypto::SegPerm::read);
  Status st = Status::Ok();
  eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                Status& out) -> sim::Task<void> {
    out = co_await nic.gm_put(dst, cap.base, net::Buffer::copy_of(pattern(64)),
                              cap);
  }(*na_, nb_->node_id(), cap, st));
  eng_.run();
  EXPECT_EQ(st.code(), Errc::access_fault);
}

TEST_F(NicTest, CapabilitiesDisabledSkipsVerification) {
  cm_.capabilities_enabled = false;
  make_hosts();
  auto cap = export_buffer(pattern(4096), crypto::SegPerm::read);
  cap.mac ^= 0xdeadbeef;  // forged MAC goes unnoticed when disabled
  Result<net::Buffer> res = Errc::timed_out;
  eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                Result<net::Buffer>& out) -> sim::Task<void> {
    out = co_await nic.gm_get(dst, cap.base, cap.length, cap);
  }(*na_, nb_->node_id(), cap, res));
  eng_.run();
  EXPECT_TRUE(res.ok());
}

TEST_F(NicTest, LazyExportMissesThenHits) {
  NicConfig cfg;
  cfg.preload_tlb = false;
  make_hosts(cfg);
  cm_.nic_tlb_miss = usec(50);  // keep the test fast
  const auto data = pattern(4096);
  const auto cap = export_buffer(data, crypto::SegPerm::read,
                                 /*pin_now=*/false);
  EXPECT_EQ(nb_->tlb().size(), 0u);

  auto get_once = [&]() {
    Result<net::Buffer> res = Errc::timed_out;
    eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                  Result<net::Buffer>& out) -> sim::Task<void> {
      out = co_await nic.gm_get(dst, cap.base, cap.length, cap);
    }(*na_, nb_->node_id(), cap, res));
    eng_.run();
    return res;
  };

  auto first = get_once();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(nb_->tlb().misses(), 1u);
  EXPECT_EQ(nb_->tlb().size(), 1u);
  // Page pinned while its translation is TLB-resident (§4.1).
  EXPECT_EQ(hb_->user_as().lookup(mem::page_of(exported_va_))->pin_count, 1);

  const auto misses_before = nb_->tlb().misses();
  auto second = get_once();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(nb_->tlb().misses(), misses_before);  // hit this time
}

TEST_F(NicTest, TlbEvictionUnpinsLruPage) {
  NicConfig cfg;
  cfg.tlb_entries = 2;
  make_hosts(cfg);
  // Export 3 single-page segments with preload: third insert evicts LRU.
  std::vector<mem::Vaddr> vas;
  for (int i = 0; i < 3; ++i) {
    const auto va = hb_->map_new(hb_->user_as(), mem::kPageSize);
    vas.push_back(va);
    auto cap = nb_->export_segment(hb_->user_as(), va, mem::kPageSize,
                                   crypto::SegPerm::read, true);
    ASSERT_TRUE(cap.ok());
  }
  EXPECT_EQ(nb_->tlb().size(), 2u);
  EXPECT_EQ(hb_->user_as().lookup(mem::page_of(vas[0]))->pin_count, 0);
  EXPECT_EQ(hb_->user_as().lookup(mem::page_of(vas[1]))->pin_count, 1);
  EXPECT_EQ(hb_->user_as().lookup(mem::page_of(vas[2]))->pin_count, 1);
}

TEST_F(NicTest, EthSendDeliversDatagram) {
  const auto data = pattern(20000);  // 3 Ethernet fragments
  std::optional<Nic::EthDatagram> got;
  nb_->set_eth_sink([&](Nic::EthDatagram d) -> sim::Task<void> {
    got = std::move(d);
    co_return;
  });
  eng_.spawn(na_->eth_send(nb_->node_id(), net::Buffer::copy_of(data)));
  eng_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->rddp_placed);
  const auto v = got->data.view();
  ASSERT_EQ(v.size(), data.size());
  EXPECT_TRUE(std::equal(v.begin(), v.end(), data.begin()));
}

TEST_F(NicTest, PrepostedBufferReceivesHeaderSplitPayload) {
  // Datagram layout: 128-byte RPC header + 16000-byte payload.
  const Bytes hdr_len = 128;
  const auto payload = pattern(16000, 5);
  auto dgram = pattern(hdr_len, 7);
  dgram.insert(dgram.end(), payload.begin(), payload.end());

  // b pre-posts a user buffer tagged xid=77.
  const mem::Vaddr va = hb_->map_new(hb_->user_as(), payload.size());
  nb_->prepost(77, hb_->user_as(), va, payload.size());

  std::optional<Nic::EthDatagram> got;
  nb_->set_eth_sink([&](Nic::EthDatagram d) -> sim::Task<void> {
    got = std::move(d);
    co_return;
  });
  eng_.spawn(na_->eth_send(nb_->node_id(), net::Buffer::take(dgram), 77,
                           hdr_len, payload.size()));
  eng_.run();

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->rddp_placed);
  EXPECT_EQ(got->rddp_data_len, payload.size());
  // Host stack sees only the header...
  EXPECT_EQ(got->data.size(), hdr_len);
  // ...and the payload landed in the user buffer without host copies.
  std::vector<std::byte> placed(payload.size());
  ASSERT_TRUE(hb_->user_as().read(va, placed).ok());
  EXPECT_EQ(placed, payload);
}

TEST_F(NicTest, PrepostCancelledMidReassemblyLeavesAHoleInline) {
  // The caller gives up on the pre-post while the datagram is arriving: the
  // body bytes placed before the cancel stay in the user buffer, the rest
  // arrive inline, and the inline datagram holds zeros where the placed
  // bytes would be — so the end-to-end RPC checksum rejects it.
  const Bytes hdr_len = 64;
  auto body = pattern(5 * cm_.eth_mtu, 5);
  for (auto& b : body) b |= std::byte{1};  // no zero byte in the body
  auto dgram = pattern(hdr_len, 7);
  dgram.insert(dgram.end(), body.begin(), body.end());

  const mem::Vaddr va = hb_->map_new(hb_->user_as(), body.size());
  nb_->prepost(77, hb_->user_as(), va, body.size());
  std::optional<Nic::EthDatagram> got;
  nb_->set_eth_sink([&](Nic::EthDatagram d) -> sim::Task<void> {
    got = std::move(d);
    co_return;
  });
  eng_.spawn(na_->eth_send(nb_->node_id(), net::Buffer::copy_of(dgram), 77,
                           hdr_len, body.size()));
  // Fragments land about 40 us apart; cancel after the second.
  eng_.schedule_fn(usec(120), [this] { nb_->cancel_prepost(77); });
  eng_.run();

  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->rddp_placed);
  const auto v = got->data.view();
  ASSERT_EQ(v.size(), dgram.size());
  EXPECT_TRUE(std::equal(v.begin(), v.begin() + hdr_len, dgram.begin()));
  std::vector<std::byte> placed(body.size());
  ASSERT_TRUE(hb_->user_as().read(va, placed).ok());
  Bytes hole = 0, inline_bytes = 0;
  for (Bytes i = 0; i < body.size(); ++i) {
    const std::byte at = v[hdr_len + i];
    if (at == std::byte{0}) {
      ASSERT_EQ(placed[i], body[i]) << i;  // placed before the cancel
      ++hole;
    } else {
      ASSERT_EQ(at, body[i]) << i;
      ++inline_bytes;
    }
  }
  // The cancel fell mid-datagram: both parts are there.
  EXPECT_GT(hole, 0u);
  EXPECT_GT(inline_bytes, 0u);
  EXPECT_EQ(nb_->reassembly_copies(), 1u);
}

TEST_F(NicTest, RddpBulkMustEndTheDatagram) {
  // A receiver hands the bytes in front of the bulk to the host stack as
  // the datagram's headers, so a trailer behind the bulk is refused.
  EXPECT_DEATH(
      {
        eng_.spawn(na_->eth_send(nb_->node_id(),
                                 net::Buffer::copy_of(pattern(1000)), 5, 64,
                                 900));
        eng_.run();
      },
      "RDDP bulk must end the datagram");
}

TEST_F(NicTest, UnmatchedXidDeliversWholeDatagram) {
  const auto payload = pattern(4000, 5);
  auto dgram = pattern(64, 7);
  dgram.insert(dgram.end(), payload.begin(), payload.end());
  std::optional<Nic::EthDatagram> got;
  nb_->set_eth_sink([&](Nic::EthDatagram d) -> sim::Task<void> {
    got = std::move(d);
    co_return;
  });
  // xid 99 was never pre-posted.
  eng_.spawn(na_->eth_send(nb_->node_id(), net::Buffer::take(dgram), 99, 64,
                           payload.size()));
  eng_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->rddp_placed);
  EXPECT_EQ(got->data.size(), 64 + payload.size());
}

TEST_F(NicTest, OrdmaDoesNotUseTargetHostCpu) {
  const auto cap = export_buffer(pattern(4096), crypto::SegPerm::read);
  const auto before = hb_->sample_cpu();
  Result<net::Buffer> res = Errc::timed_out;
  eng_.spawn([](Nic& nic, net::NodeId dst, crypto::Capability cap,
                Result<net::Buffer>& out) -> sim::Task<void> {
    out = co_await nic.gm_get(dst, cap.base, cap.length, cap);
  }(*na_, nb_->node_id(), cap, res));
  eng_.run();
  ASSERT_TRUE(res.ok());
  const auto after = hb_->sample_cpu();
  // The paper's central claim: the server CPU is not involved in ORDMA.
  EXPECT_EQ((after.busy - before.busy).ns, 0);
}

TEST_F(NicTest, ExportRevokeCyclesKeepTheTablesBounded) {
  // Every export takes a fresh segment id and NIC VA; neither is reused,
  // so the TPT and TLB tables stay small only because a table leaf is
  // released with its last entry.
  const mem::Vaddr va = hb_->map_new(hb_->user_as(), mem::kPageSize);
  std::size_t max_tpt_leaves = 0;
  std::size_t max_tlb_leaves = 0;
  for (int i = 0; i < 10000; ++i) {
    auto cap = nb_->export_segment(hb_->user_as(), va, mem::kPageSize,
                                   crypto::SegPerm::read, /*pin_now=*/true);
    ASSERT_TRUE(cap.ok());
    max_tpt_leaves = std::max(max_tpt_leaves, nb_->tpt().table_leaves());
    max_tlb_leaves = std::max(max_tlb_leaves, nb_->tlb().table_leaves());
    nb_->revoke_segment(cap.value().segment_id);
  }
  EXPECT_LE(max_tpt_leaves, 2u);  // one segment leaf, one page leaf
  EXPECT_LE(max_tlb_leaves, 1u);
  EXPECT_EQ(nb_->tpt().num_segments(), 0u);
  EXPECT_EQ(nb_->tpt().table_leaves(), 0u);
  EXPECT_EQ(nb_->tlb().size(), 0u);
  EXPECT_EQ(nb_->tlb().table_leaves(), 0u);
  EXPECT_EQ(hb_->user_as().lookup(mem::page_of(va))->pin_count, 0);
}

}  // namespace
}  // namespace ordma::nic
