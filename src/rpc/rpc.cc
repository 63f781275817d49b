#include "rpc/rpc.h"

#include <algorithm>
#include <array>

#include "mem/address_space.h"
#include "obs/sampler.h"

namespace ordma::rpc {

namespace {

std::uint32_t read_u32_at(std::span<const std::byte> v, Bytes off) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) {
    x = (x << 8) | std::to_integer<std::uint32_t>(v[off + i]);
  }
  return x;
}

void put_u32_at(std::span<std::byte> w, Bytes off, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) {
    w[off + i] = static_cast<std::byte>((x >> (8 * (3 - i))) & 0xff);
  }
}

// Write the RPC header (xid | type | proc or status | trace | cksum) in
// front of `body`, where it lies unless another view shares it
// (net::Buffer::with_front), and stamp the end-to-end checksum over
// everything but the cksum field.
net::Buffer seal_message(net::Buffer body, std::uint32_t xid,
                         std::uint32_t type, std::uint32_t word,
                         std::uint32_t trace) {
  net::Buffer b = net::Buffer::with_front(std::move(body), kRpcHeaderBytes);
  const auto w = b.mutable_view();
  put_u32_at(w, 0, xid);
  put_u32_at(w, 4, type);
  put_u32_at(w, 8, word);
  put_u32_at(w, 12, trace);
  std::uint32_t ck = checksum32(w.first(kRpcCksumOffset));
  ck = checksum32(w.subspan(kRpcHeaderBytes), ck);
  put_u32_at(w, kRpcCksumOffset, ck);
  return b;
}

}  // namespace

void Retransmit::timed_out(SimTime wait0) {
  ++counts_.timeouts;
  const SimTime now = host_.engine().now();
  host_.flight().record(now.ns, obs::flight::Ev::rpc_timeout, xid_, 0,
                        attempt_);
  // The whole timed-out wait is retransmit/backoff dead time: nothing the
  // op was charged for happened between the lost exchange and this
  // instant. The tail explainer blames it on `rpc_retransmit` (lower
  // priority than real work recorded inside the window, so live costs of
  // the lost attempt keep their own causes).
  obs::span(track_, op_, "io/rpc_retransmit", wait0, now);
}

bool Retransmit::next() {
  const std::int64_t now = host_.engine().now().ns;
  if (timeout_.ns <= 0 || attempt_ >= policy_.max_attempts) {
    host_.flight().record(now, obs::flight::Ev::rpc_giveup, xid_, 0,
                          attempt_);
    return false;
  }
  ++counts_.retransmits;
  obs::note_op_retry(op_);
  ++attempt_;
  host_.flight().record(now, obs::flight::Ev::rpc_retransmit, xid_, 0,
                        attempt_);
  timeout_ = Duration{std::min<std::int64_t>(
      static_cast<std::int64_t>(static_cast<double>(timeout_.ns) *
                                policy_.backoff),
      policy_.max_timeout.ns)};
  return true;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

bool RpcClient::reply_checksum_ok(const RpcReplyInfo& info,
                                  const Prepost* prepost) {
  const auto v = info.raw.view();
  if (v.size() < kRpcHeaderBytes) return false;
  const std::uint32_t want = read_u32_at(v, kRpcCksumOffset);
  std::uint32_t ck = checksum32(v.first(kRpcCksumOffset));
  ck = checksum32(v.subspan(kRpcHeaderBytes), ck);
  if (info.rddp_placed && info.rddp_data_len > 0 && prepost && prepost->as) {
    // Bulk was header-split into the pre-posted buffer; continue the
    // checksum over the bytes that actually landed there.
    auto placed = mem::checksum(*prepost->as, prepost->va,
                                std::min<Bytes>(info.rddp_data_len,
                                                prepost->len),
                                ck);
    if (!placed.ok()) return false;
    ck = placed.value();
  }
  return ck == want;
}

sim::Task<Result<RpcReplyInfo>> RpcClient::call(net::NodeId server,
                                                std::uint16_t server_port,
                                                std::uint32_t proc,
                                                net::Buffer args,
                                                const Prepost* prepost,
                                                obs::OpId trace_op) {
  const auto& cm = host_.costs();
  const std::uint32_t xid = calls_.open();
  host_.flight().record(host_.engine().now().ns, obs::flight::Ev::rpc_call,
                        xid, proc);

  co_await host_.cpu_consume(cm.rpc_client_issue, trace_op, "io/rpc_issue");
  if (prepost) {
    // Hand the tagged buffer descriptor to the NIC (§3.2).
    co_await host_.cpu_consume(cm.nic_prepost, trace_op, "io/register");
    host_.nic().prepost(xid, *prepost->as, prepost->va, prepost->len);
  }

  const net::Buffer msg =
      seal_message(std::move(args), xid, kRpcCall, proc,
                   static_cast<std::uint32_t>(trace_op));

  Retransmit rtx(retry_, host_, rpc_track_, rtx_, xid, trace_op);
  Result<RpcReplyInfo> out = Errc::timed_out;
  for (;;) {
    auto& done = calls_.arm(xid);
    co_await socket_.send_to(server, server_port, net::Buffer(msg),
                             /*rddp_xid=*/0, /*rddp_data_offset=*/0,
                             /*rddp_data_len=*/0, /*gather_send=*/false,
                             trace_op);

    const SimTime wait0 = host_.engine().now();
    auto got = co_await done.wait_for(rtx.timeout());
    // A reply that did not consume the prepost leaves it armed; disarm
    // before accepting so no late duplicate can scribble on the buffer
    // after we return.
    if (prepost && (!got || !got->rddp_placed)) {
      host_.nic().cancel_prepost(xid);
    }

    if (!got) {
      rtx.timed_out(wait0);
      out = Errc::timed_out;
    } else if (reply_checksum_ok(*got, prepost)) {
      host_.flight().record(host_.engine().now().ns,
                            obs::flight::Ev::rpc_reply, xid, got->status);
      out = std::move(*got);
      break;
    } else {
      ++cksum_drops_;
      host_.flight().record(host_.engine().now().ns,
                            obs::flight::Ev::rpc_cksum_drop, xid);
      out = Errc::io_error;  // stands only if attempts are exhausted
    }
    if (!rtx.next()) break;
    if (prepost) {
      // Re-arm for the retransmission (consumed or disarmed above).
      host_.nic().prepost(xid, *prepost->as, prepost->va, prepost->len);
    }
  }
  calls_.close(xid);
  co_await host_.cpu_consume(cm.rpc_client_complete, trace_op,
                             "io/rpc_complete");
  co_return out;
}

sim::Task<void> RpcClient::rx_loop() {
  for (;;) {
    msg::UdpDatagram d = co_await socket_.recv();
    XdrDecoder dec(d.data);
    const std::uint32_t xid = dec.u32();
    const std::uint32_t type = dec.u32();
    const std::uint32_t status = dec.u32();
    dec.u32();  // trace echo
    dec.u32();  // cksum — verified in call() against the raw bytes
    if (!dec.ok() || type != kRpcReply) continue;
    RpcReplyInfo info;
    info.status = status;
    info.results =
        d.data.slice(kRpcHeaderBytes, d.data.size() - kRpcHeaderBytes);
    info.raw = d.data;
    info.rddp_placed = d.rddp_placed;
    info.rddp_data_len = d.rddp_data_len;
    calls_.deliver(xid, std::move(info));  // late/duplicate replies drop
  }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

sim::Task<void> RpcServer::rx_loop() {
  for (;;) {
    msg::UdpDatagram d = co_await socket_.recv();
    // One logical nfsd thread per request; the host CPU serialises work.
    host_.engine().spawn(serve_one(std::move(d)));
  }
}

sim::Task<void> RpcServer::serve_one(msg::UdpDatagram d) {
  const auto& cm = host_.costs();
  XdrDecoder dec(d.data);
  const std::uint32_t xid = dec.u32();
  const std::uint32_t type = dec.u32();
  const std::uint32_t proc = dec.u32();
  const std::uint32_t trace = dec.u32();
  const std::uint32_t cksum = dec.u32();
  if (!dec.ok() || type != kRpcCall) co_return;
  {
    const auto v = d.data.view();
    std::uint32_t ck = checksum32(v.first(kRpcCksumOffset));
    ck = checksum32(v.subspan(kRpcHeaderBytes), ck);
    if (ck != cksum) {
      // Corrupt request: drop it; the client's retransmission recovers.
      ++cksum_drops_;
      host_.flight().record(host_.engine().now().ns,
                            obs::flight::Ev::srv_cksum_drop, xid);
      co_return;
    }
  }

  // Node ids are dense from 0, so 16 bits of the key hold the client.
  ORDMA_CHECK(d.src <= 0xffff);
  const std::uint64_t key = (std::uint64_t{d.src} << 48) |
                            (std::uint64_t{d.src_port} << 32) | xid;
  const auto seen = replies_.admit(key);
  if (seen.verdict == ReplyCache<SentReply>::Verdict::drop) {
    ++dup_drops_;
    host_.flight().record(host_.engine().now().ns,
                          obs::flight::Ev::srv_dup_drop, xid);
    co_return;
  }
  if (seen.verdict == ReplyCache<SentReply>::Verdict::replay) {
    ++dup_replays_;
    host_.flight().record(host_.engine().now().ns,
                          obs::flight::Ev::srv_dup_replay, xid);
    SentReply r = *seen.reply;  // copy out: the cache may change meanwhile
    co_await host_.cpu().consume_parts(
        trace, std::array<sim::Resource::Part, 2>{{
                   {cm.cpu_schedule, "io/sched"},
                   {cm.rpc_server_dispatch, "io/rpc_dispatch"},
               }});
    co_await socket_.send_to(d.src, d.src_port, std::move(r.wire),
                             r.rddp_xid, r.data_offset, r.data_len,
                             r.gather_send, trace);
    co_return;
  }
  host_.flight().record(host_.engine().now().ns, obs::flight::Ev::srv_serve,
                        xid, proc);

  co_await host_.cpu().consume_parts(
      trace, std::array<sim::Resource::Part, 2>{{
                 {cm.cpu_schedule, "io/sched"},
                 {cm.rpc_server_dispatch, "io/rpc_dispatch"},
             }});

  RpcCallCtx ctx;
  ctx.client = d.src;
  ctx.client_port = d.src_port;
  ctx.xid = xid;
  ctx.proc = proc;
  ctx.trace_op = trace;
  ctx.args = d.data.slice(kRpcHeaderBytes, d.data.size() - kRpcHeaderBytes);

  auto it = handlers_.find(proc);
  RpcServerReply reply;
  if (it == handlers_.end()) {
    reply.status = static_cast<std::uint32_t>(Errc::not_supported);
  } else {
    reply = co_await it->second(ctx);
  }
  ++served_;

  // Assemble the reply datagram, header | results | bulk, in front of the
  // bulk where it lies; the header echoes the caller's trace context.
  const auto results = reply.results.view();
  const Bytes data_offset = kRpcHeaderBytes + results.size();
  const Bytes data_len = reply.bulk.size();
  net::Buffer body =
      net::Buffer::with_front(std::move(reply.bulk), results.size());
  std::copy(results.begin(), results.end(), body.mutable_view().begin());
  net::Buffer wire =
      seal_message(std::move(body), xid, kRpcReply, reply.status, trace);
  const std::uint32_t rddp_xid = data_len > 0 ? xid : 0;

  replies_.answer(key,
                  SentReply{wire, rddp_xid, data_offset, data_len,
                            reply.gather_send},
                  wire.size());
  co_await socket_.send_to(d.src, d.src_port, std::move(wire), rddp_xid,
                           data_offset, data_len, reply.gather_send, trace);
}

}  // namespace ordma::rpc
