#include "nas/dafs/dafs_client.h"

#include <algorithm>

#include "nas/wire_util.h"
#include "obs/sampler.h"
#include "recover/recover.h"

namespace ordma::nas::dafs {

DafsClient::DafsClient(host::Host& host, net::NodeId server,
                       DafsClientConfig cfg)
    : FileClient(host),
      server_(server),
      cfg_(cfg),
      trk_rpc_(host.name(), "dafs.rpc"),
      calls_(host.engine()),
      regs_(host) {}

sim::Task<Status> DafsClient::ensure_connected() {
  if (conn_) co_return Status::Ok();
  conn_ = co_await msg::vi_connect(host_, server_, kDafsListenPort,
                                   cfg_.completion);
  host_.engine().spawn(rx_loop());
  co_return Status::Ok();
}

sim::Task<void> DafsClient::rx_loop() {
  for (;;) {
    net::Buffer msg = co_await conn_->recv();  // pickup charged to reply's op
    rpc::XdrDecoder dec(msg);
    const std::uint32_t req_id = dec.u32();
    if (!dec.ok()) continue;  // runt frame
    if ((req_id & kSrvReqBit) != 0) {
      // Server-initiated frame (cache invalidation). Handled synchronously
      // — the handler must drop/flag stale state before the ack goes back,
      // and the receive loop cannot park on an RPC of its own (replies
      // would never be matched). Retransmitted invalidations re-ack: the
      // handler is idempotent.
      const std::uint32_t proc = dec.u32();
      if (proc == kInvalidate) {
        const InvalidateMsg inv = decode_invalidate(dec);
        if (!dec.ok()) continue;
        ++invalidates_rx_;
        host_.flight().record(host_.engine().now().ns,
                              obs::flight::Ev::inval_recv, inv.ino, inv.fbn,
                              static_cast<std::uint32_t>(inv.version));
        if (on_invalidate_) on_invalidate_(inv.ino, inv.fbn, inv.version);
        rpc::XdrEncoder ack;
        ack.u32(req_id);
        ack.u32(kInvalidateAck);
        co_await conn_->send(ack.finish(), /*trace_op=*/0);
      }
      continue;
    }
    calls_.deliver(req_id, msg.slice(4, msg.size() - 4));  // late ones drop
  }
}

sim::Task<Result<net::Buffer>> DafsClient::call(std::uint32_t proc,
                                                rpc::XdrEncoder args,
                                                obs::OpId trace_op) {
  co_await ensure_connected();
  const auto& cm = host_.costs();
  co_await host_.cpu_consume(cm.dafs_client_proc, trace_op,
                             "io/dafs_client_proc");

  const std::uint32_t req_id = calls_.open();
  rpc::XdrEncoder enc;
  enc.u32(req_id);
  enc.u32(proc);
  enc.raw(net::Buffer(args.finish()).view());
  const net::Buffer msg = enc.finish();

  // Retransmits reuse req_id so the server's per-connection duplicate cache
  // suppresses re-execution and replays the cached reply.
  rpc::Retransmit rtx(cfg_.retry, host_, trk_rpc_, rtx_, req_id, trace_op);
  Result<net::Buffer> out = Errc::timed_out;
  for (;;) {
    auto& done = calls_.arm(req_id);
    co_await conn_->send(net::Buffer(msg), trace_op);
    const SimTime wait0 = host_.engine().now();
    auto got = co_await done.wait_for(rtx.timeout());
    if (got) {
      out = std::move(*got);
      break;
    }
    rtx.timed_out(wait0);
    if (!rtx.next()) break;  // out = timed_out
  }
  calls_.close(req_id);
  if (!out.ok()) co_return out;
  rpc::XdrDecoder dec(out.value());
  const auto status = static_cast<Errc>(dec.u32());
  if (!dec.ok()) co_return Errc::io_error;
  if (status != Errc::ok) co_return status;
  co_return out.value().slice(4, out.value().size() - 4);
}

void DafsClient::decode_refs(rpc::XdrDecoder& dec, std::uint32_t count,
                             DafsReadResult& out) {
  // The high bit of the count marks the wider per-record layout with a
  // trailing commit version (coherence servers only), so plain replies
  // keep their exact wire size.
  const bool versioned = (count & kVersionedRefsBit) != 0;
  count &= ~kVersionedRefsBit;
  out.refs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.refs.push_back(decode_ref_record(dec, versioned));
  }
}

// ---------------------------------------------------------------------------
// Protocol operations
// ---------------------------------------------------------------------------

sim::Task<Result<OpenInfo>> DafsClient::dafs_open(const std::string& path,
                                                  obs::OpId trace_op) {
  rpc::XdrEncoder args;
  args.str(path);
  auto reply = co_await call(kOpen, std::move(args), trace_op);
  if (!reply.ok()) co_return reply.status();
  rpc::XdrDecoder dec(reply.value());
  OpenInfo info;
  info.fh = dec.u64();
  info.size = dec.u64();
  info.delegation = dec.u32() != 0;
  info.server_block = dec.u32();
  server_block_size_ = info.server_block;
  if (dec.u32() != 0) {
    cache::RemoteRef ref;
    ref.va = dec.u64();
    ref.cap = decode_cap(dec);
    ref.len = fs::ServerFs::kAttrRecordSize;
    ref.seg_id = ref.cap.segment_id;
    info.attr_ref = ref;
  }
  last_open_ = info;
  co_return info;
}

sim::Task<Status> DafsClient::dafs_close(std::uint64_t fh,
                                         obs::OpId trace_op) {
  rpc::XdrEncoder args;
  args.u64(fh);
  co_return (co_await call(kClose, std::move(args), trace_op)).status();
}

sim::Task<Result<DafsReadResult>> DafsClient::read_inline(std::uint64_t fh,
                                                          Bytes off,
                                                          Bytes len,
                                                          obs::OpId trace_op) {
  rpc::XdrEncoder args;
  args.u64(fh);
  args.u64(off);
  args.u32(static_cast<std::uint32_t>(len));
  auto reply = co_await call(kReadInline, std::move(args), trace_op);
  if (!reply.ok()) co_return reply.status();
  rpc::XdrDecoder dec(reply.value());

  DafsReadResult out;
  out.n = dec.u32();
  out.data_cksum = dec.u32();
  const std::uint32_t ref_count = dec.u32();
  decode_refs(dec, ref_count, out);
  if (!dec.ok() || dec.remaining() < out.n) co_return Errc::io_error;
  // The data follows the refs; hand out a view of the reply, not a copy.
  const Bytes at = reply.value().size() - dec.remaining();
  out.inline_data = reply.value().slice(at, out.n);
  co_return out;
}

sim::Task<Result<DafsReadResult>> DafsClient::read_direct(
    std::uint64_t fh, Bytes off, Bytes len, mem::Vaddr nic_va,
    const crypto::Capability& cap, obs::OpId trace_op) {
  rpc::XdrEncoder args;
  args.u64(fh);
  args.u64(off);
  args.u32(static_cast<std::uint32_t>(len));
  args.u64(nic_va);
  encode_cap(args, cap);
  auto reply = co_await call(kReadDirect, std::move(args), trace_op);
  if (!reply.ok()) co_return reply.status();
  rpc::XdrDecoder dec(reply.value());

  DafsReadResult out;
  out.n = dec.u32();
  out.data_cksum = dec.u32();
  const std::uint32_t ref_count = dec.u32();
  decode_refs(dec, ref_count, out);
  if (!dec.ok()) co_return Errc::io_error;
  co_return out;
}

sim::Task<Result<Bytes>> DafsClient::write_inline(
    std::uint64_t fh, Bytes off, std::span<const std::byte> data,
    obs::OpId trace_op) {
  // Inline write data is copied into the message (user → comm buffer).
  co_await host_.copy(data.size(), trace_op);
  rpc::XdrEncoder args;
  args.u64(fh);
  args.u64(off);
  args.opaque(data);
  auto reply = co_await call(kWriteInline, std::move(args), trace_op);
  if (!reply.ok()) co_return reply.status();
  rpc::XdrDecoder dec(reply.value());
  co_return Bytes{dec.u32()};
}

sim::Task<Result<Bytes>> DafsClient::write_direct(
    std::uint64_t fh, Bytes off, Bytes len, mem::Vaddr nic_va,
    const crypto::Capability& cap, obs::OpId trace_op) {
  rpc::XdrEncoder args;
  args.u64(fh);
  args.u64(off);
  args.u32(static_cast<std::uint32_t>(len));
  args.u64(nic_va);
  encode_cap(args, cap);
  auto reply = co_await call(kWriteDirect, std::move(args), trace_op);
  if (!reply.ok()) co_return reply.status();
  rpc::XdrDecoder dec(reply.value());
  co_return Bytes{dec.u32()};
}

sim::Task<Result<DafsClient::PutCommitResult>> DafsClient::put_commit(
    std::uint64_t fh, std::uint64_t fbn, Bytes off, Bytes len,
    std::uint32_t cksum, std::uint32_t flags, obs::OpId trace_op) {
  rpc::XdrEncoder args;
  encode_put_commit(args, PutCommitArgs{fh, fbn,
                                        static_cast<std::uint32_t>(off),
                                        static_cast<std::uint32_t>(len),
                                        cksum, flags});
  auto reply = co_await call(kPutCommit, std::move(args), trace_op);
  if (!reply.ok()) co_return reply.status();
  rpc::XdrDecoder dec(reply.value());
  PutCommitResult out;
  out.n = dec.u32();
  out.version = dec.u64();
  if (!dec.ok()) co_return Errc::io_error;
  co_return out;
}

sim::Task<Result<std::vector<Bytes>>> DafsClient::read_batch(
    const std::vector<BatchEntry>& entries) {
  rpc::XdrEncoder args;
  args.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    args.u64(e.fh);
    args.u64(e.off);
    args.u32(static_cast<std::uint32_t>(e.len));
    args.u64(e.nic_va);
    encode_cap(args, e.cap);
  }
  auto reply = co_await call(kReadBatch, std::move(args));
  if (!reply.ok()) co_return reply.status();
  rpc::XdrDecoder dec(reply.value());
  std::vector<Bytes> ns;
  ns.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) ns.push_back(dec.u32());
  co_return ns;
}

// ---------------------------------------------------------------------------
// FileClient interface
// ---------------------------------------------------------------------------

sim::Task<Result<core::OpenResult>> DafsClient::open(
    const std::string& path) {
  // Delegated opens are satisfied locally (§5.2).
  if (auto it = delegated_opens_.find(path); it != delegated_opens_.end()) {
    co_await host_.cpu_consume(host_.costs().cpu_syscall);
    co_return core::OpenResult{it->second.fh, it->second.size};
  }
  auto info = co_await dafs_open(path);
  if (!info.ok()) co_return info.status();
  if (info.value().delegation) {
    delegations_.grant(info.value().fh);
    delegated_opens_[path] = info.value();
  }
  co_return core::OpenResult{info.value().fh, info.value().size};
}

sim::Task<Status> DafsClient::close(std::uint64_t fh) {
  if (delegations_.has(fh)) {
    co_await host_.cpu_consume(host_.costs().cpu_syscall);
    co_return Status::Ok();  // delegation keeps the server-side open alive
  }
  co_return co_await dafs_close(fh);
}

sim::Task<Result<Bytes>> DafsClient::pread_op(std::uint64_t fh, Bytes off,
                                              mem::Vaddr user_va, Bytes len,
                                              obs::OpId op) {
  const recover::Site site{host_, stats_.retries, op};
  if (!cfg_.direct_reads) {
    co_return co_await recover::bounded(
        cfg_.max_io_attempts, site, [&]() -> sim::Task<Result<Bytes>> {
          auto res = co_await read_inline(fh, off, len, op);
          if (!res.ok()) co_return res.status();
          // Copy from the communication buffer into the user buffer.
          const Bytes n = res.value().n;
          co_await host_.copy(n, op);
          if (n > 0 &&
              !host_.user_as()
                   .write(user_va, res.value().inline_data.view().subspan(0, n))
                   .ok()) {
            co_return Errc::access_fault;
          }
          co_return n;
        });
  }
  auto reg = co_await ensure_registered(user_va, len, op);
  if (!reg.ok()) co_return reg.status();
  // Direct reads: the server's RDMA write is unacked, so a lost or corrupt
  // data frame is invisible at the transport level. Verify the landed bytes
  // against the reply's checksum; a mismatch is a retryable io_error.
  co_return co_await recover::bounded(
      cfg_.max_io_attempts, site, [&]() -> sim::Task<Result<Bytes>> {
        auto res = co_await read_direct(fh, off, len,
                                        reg.value()->nic_va(user_va),
                                        reg.value()->cap, op);
        if (!res.ok()) co_return res.status();
        const Bytes n = res.value().n;
        const auto landed = data_checksum(host_.user_as(), user_va, n);
        if (!landed.ok()) co_return Errc::access_fault;
        if (landed.value() == res.value().data_cksum) co_return n;
        ++integrity_retries_;
        co_return Errc::io_error;
      });
}

sim::Task<Result<Bytes>> DafsClient::pwrite_op(std::uint64_t fh, Bytes off,
                                               mem::Vaddr user_va, Bytes len,
                                               obs::OpId op) {
  // Writes are idempotent (same data, same offset), so a whole-operation
  // re-issue after a timeout/revocation/transient error is safe.
  co_return co_await recover::bounded(
      cfg_.max_io_attempts, recover::Site{host_, stats_.retries, op},
      [&]() -> sim::Task<Result<Bytes>> {
        if (!cfg_.direct_reads) {
          std::vector<std::byte> data(len);
          if (!host_.user_as().read(user_va, data).ok()) {
            co_return Errc::access_fault;
          }
          co_return co_await write_inline(fh, off, data, op);
        }
        auto reg = co_await ensure_registered(user_va, len, op);
        if (!reg.ok()) co_return reg.status();
        co_return co_await write_direct(fh, off, len,
                                        reg.value()->nic_va(user_va),
                                        reg.value()->cap, op);
      });
}

sim::Task<Result<fs::Attr>> DafsClient::getattr_op(std::uint64_t fh,
                                                   obs::OpId op) {
  rpc::XdrEncoder args;
  args.u64(fh);
  auto reply = co_await call(kGetattr, std::move(args), op);
  if (!reply.ok()) co_return reply.status();
  rpc::XdrDecoder dec(reply.value());
  co_return decode_attr(dec);
}

sim::Task<Result<core::OpenResult>> DafsClient::create(
    const std::string& path) {
  rpc::XdrEncoder args;
  args.str(path);
  auto reply = co_await call(kCreate, std::move(args));
  if (!reply.ok()) co_return reply.status();
  rpc::XdrDecoder dec(reply.value());
  const std::uint64_t fh = dec.u64();
  const Bytes size = dec.u64();
  server_block_size_ = dec.u32();
  co_return core::OpenResult{fh, size};
}

sim::Task<Status> DafsClient::unlink(const std::string& path) {
  delegated_opens_.erase(path);
  rpc::XdrEncoder args;
  args.str(path);
  co_return (co_await call(kRemove, std::move(args))).status();
}

}  // namespace ordma::nas::dafs
