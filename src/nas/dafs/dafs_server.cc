#include "nas/dafs/dafs_server.h"

#include <algorithm>
#include <array>
#include <vector>

#include "nas/wire_util.h"

namespace ordma::nas::dafs {

namespace {
std::uint32_t err_u32(Errc e) { return static_cast<std::uint32_t>(e); }
}

DafsServer::DafsServer(host::Host& host, fs::ServerFs& fs,
                       DafsServerConfig cfg)
    : host_(host),
      fs_(fs),
      cfg_(cfg),
      listener_(host, kDafsListenPort, cfg.completion) {
  // Revoke a block's exported segment the moment its memory is reused:
  // stale client references then fault at the NIC instead of reading
  // someone else's data (§4.2 consistency mechanism).
  fs_.cache().set_evict_hook([this](fs::CacheBlock& blk) {
    if (blk.export_seg != 0) {
      host_.nic().revoke_segment(blk.export_seg);
      blk.export_seg = 0;
    }
  });
  host_.engine().spawn(accept_loop());
}

sim::Task<void> DafsServer::accept_loop() {
  for (;;) {
    auto conn = co_await listener_.accept();
    host_.engine().spawn(serve_connection(std::move(conn)));
  }
}

sim::Task<void> DafsServer::serve_connection(
    std::unique_ptr<msg::ViConnection> conn) {
  // Requests are served concurrently (they may block on the disk); each
  // handler sends its own reply on the shared connection and clients match
  // replies to requests by req_id.
  msg::ViConnection& c = *conn;
  auto state = std::make_shared<ConnState>(host_.engine());
  state->id = next_conn_id_++;
  state->conn = &c;
  conns_.emplace(state->id, state);
  for (;;) {
    nic::Nic::GmMessage msg = co_await c.recv_msg();
    {
      // Frames answering a server-initiated request (req_id high bit) are
      // matched to their invalidation right here — they are acks, not
      // requests: no dedup cache, no handler, no reply.
      rpc::XdrDecoder peek(msg.data);
      const std::uint32_t rid = peek.u32();
      const std::uint32_t proc = peek.u32();
      if (peek.ok() && (rid & kSrvReqBit) != 0) {
        if (proc == kInvalidateAck) {
          host_.flight().record(host_.engine().now().ns,
                                obs::flight::Ev::inval_ack, rid);
          state->invals.deliver(rid & ~kSrvReqBit);  // re-acks drop
        }
        continue;
      }
    }
    host_.engine().spawn([](DafsServer& srv, msg::ViConnection& c,
                            std::shared_ptr<ConnState> state,
                            nic::Nic::GmMessage msg) -> sim::Task<void> {
      using Verdict = rpc::ReplyCache<net::Buffer>::Verdict;
      const obs::OpId op = msg.trace_op;
      std::uint32_t req_id = 0;
      {
        rpc::XdrDecoder peek(msg.data);
        req_id = peek.u32();
        if (!peek.ok()) co_return;  // runt frame
      }
      const auto seen = state->replies.admit(req_id);
      if (seen.verdict == Verdict::replay) {
        // Retransmission of an answered request: replay the stored reply
        // without re-executing the handler (mutations must not re-run).
        ++srv.dup_replays_;
        co_await c.send(net::Buffer(*seen.reply), op);
        co_return;
      }
      if (seen.verdict == Verdict::drop) {
        ++srv.dup_drops_;  // original still executing; its reply will do
        co_return;
      }
      net::Buffer reply =
          co_await srv.handle(c, std::move(msg.data), op, state->id);
      state->replies.answer(req_id, reply, reply.size());
      co_await c.send(std::move(reply), op);
    }(*this, c, state, std::move(msg)));
  }
}

void DafsServer::piggyback(rpc::XdrEncoder& out, std::uint64_t fbn,
                           fs::CacheBlock& blk, std::uint64_t version) {
  // With the write path on, blocks are exported read-write so the same
  // reference serves gets and optimistic puts. Coherence appends the
  // block's commit version to each record.
  const auto perm = cfg_.writable_refs ? crypto::SegPerm::read_write
                                       : crypto::SegPerm::read;
  const bool fresh = blk.export_seg == 0;
  auto cap = fresh ? host_.nic().export_segment(fs_.cache().space(), blk.va,
                                                fs_.block_size(), perm,
                                                /*pin_now=*/false)
                   : host_.nic().capability_for(blk.export_seg);
  if (!cap.ok()) return;  // can't export (e.g. TPT pressure): no ref
  if (fresh) {
    blk.export_seg = cap.value().segment_id;
    ++exported_;
  }
  const cache::RemoteRef ref{blk.export_seg, cap.value().base,
                             fs_.block_size(), cap.value()};
  encode_ref_record(out, RefRecord{fbn, ref, version}, cfg_.coherence);
}

void DafsServer::encode_attr_ref(rpc::XdrEncoder& out, fs::Ino ino) {
  if (!cfg_.piggyback_refs) {
    out.u32(0);
    return;
  }
  if (!attr_region_cap_) {
    auto cap = host_.nic().export_segment(
        host_.kernel_as(), fs_.attr_region(), fs_.attr_region_len(),
        crypto::SegPerm::read, /*pin_now=*/false);
    if (!cap.ok()) {
      out.u32(0);
      return;
    }
    attr_region_cap_ = cap.value();
  }
  auto off = fs_.attr_offset(ino);
  if (!off.ok()) {
    out.u32(0);
    return;
  }
  out.u32(1);
  out.u64(attr_region_cap_->base + off.value());
  encode_cap(out, *attr_region_cap_);
}

sim::Task<void> DafsServer::do_read(msg::ViConnection& conn,
                                    rpc::XdrDecoder& dec,
                                    rpc::XdrEncoder& out, bool direct,
                                    obs::OpId trace_op,
                                    std::uint64_t conn_id) {
  const fs::Ino ino = dec.u64();
  const Bytes off = dec.u64();
  const Bytes len = dec.u32();
  mem::Vaddr client_va = 0;
  crypto::Capability client_cap;
  if (direct) {
    client_va = dec.u64();
    client_cap = decode_cap(dec);
  }

  auto attr = fs_.getattr(ino);
  if (!attr.ok()) {
    out.u32(err_u32(attr.code()));
    co_return;
  }
  const Bytes n =
      off >= attr.value().size
          ? 0
          : std::min<Bytes>(len, attr.value().size - off);

  // Walk the covered cache blocks: collect data and (in ODAFS mode) refs.
  net::Buffer data = net::Buffer::alloc(n);
  const std::span<std::byte> fill = data.mutable_view();
  rpc::XdrEncoder refs;
  std::uint32_t ref_count = 0;
  const Bytes bs = fs_.block_size();
  Bytes done = 0;
  while (done < n) {
    const Bytes pos = off + done;
    const std::uint64_t fbn = pos / bs;
    const Bytes boff = pos % bs;
    const Bytes chunk = std::min<Bytes>(n - done, bs - boff);
    auto blk = co_await fs_.get_cache_block(ino, fbn, /*for_write=*/false,
                                            trace_op);
    if (!blk.ok()) {
      out.u32(err_u32(blk.code()));
      co_return;
    }
    // Coherence: capture the commit version BEFORE reading the bytes (both
    // in the same instant — no await point between them), so the version
    // tag can never be newer than the data it describes, and register this
    // connection as a holder so later writers invalidate it.
    std::uint64_t version = 0;
    if (cfg_.coherence) {
      auto& se = share_[fs::CacheKey{ino, fbn}];
      version = se.version;
      se.holders.insert(conn_id);
    }
    ORDMA_CHECK(host_.kernel_as()
                    .read(blk.value()->va + boff, fill.subspan(done, chunk))
                    .ok());
    if (cfg_.piggyback_refs) {
      const auto before = refs.size();
      piggyback(refs, fbn, *blk.value(), version);
      if (refs.size() > before) ++ref_count;
    }
    done += chunk;
  }

  out.u32(0);  // status ok
  out.u32(static_cast<std::uint32_t>(n));
  // Direct reads deliver the data by unacked RDMA write; the checksum lets
  // the client verify the bytes actually landed (and retry if not).
  out.u32(data_checksum(data.view()));
  out.u32(cfg_.coherence && cfg_.piggyback_refs
              ? (ref_count | kVersionedRefsBit)
              : ref_count);
  out.raw(refs.view());

  if (direct) {
    if (n > 0) {
      // Reliable in-order delivery: the reply sent right behind the RDMA
      // write reaches the client after the data does, so the server does
      // not wait for the remote ack (the paper's direct read costs 144 us,
      // not an extra round trip).
      auto st = co_await host_.nic().gm_put(conn.peer_node(), client_va,
                                            std::move(data), client_cap,
                                            /*wait_ack=*/false, trace_op);
      ORDMA_CHECK(st.ok());
    }
  } else {
    out.raw(data.view());
  }
}

sim::Task<void> DafsServer::do_write(msg::ViConnection& conn,
                                     rpc::XdrDecoder& dec,
                                     rpc::XdrEncoder& out, bool direct,
                                     obs::OpId trace_op,
                                     std::uint64_t conn_id) {
  const fs::Ino ino = dec.u64();
  const Bytes off = dec.u64();

  std::vector<std::byte> data;
  if (direct) {
    const Bytes len = dec.u32();
    const mem::Vaddr client_va = dec.u64();
    const crypto::Capability cap = decode_cap(dec);
    // Server-initiated RDMA read pulls the data from the client buffer.
    auto res = co_await host_.nic().gm_get(conn.peer_node(), client_va, len,
                                           cap, trace_op);
    if (!res.ok()) {
      out.u32(err_u32(res.code()));
      co_return;
    }
    const auto v = res.value().view();
    data.assign(v.begin(), v.end());
  } else {
    const auto v = dec.opaque();
    data.assign(v.begin(), v.end());
    // Inline write data is staged through kernel buffers.
    co_await host_.copy(data.size(), trace_op);
  }

  auto n = co_await fs_.write(ino, off, data, trace_op);
  if (!n.ok()) {
    out.u32(err_u32(n.code()));
    co_return;
  }
  if (cfg_.coherence && n.value() > 0) {
    // RPC writes commit through the same per-block protocol as puts: bump
    // the version and invalidate every other holder before replying.
    const Bytes bs = fs_.block_size();
    const std::uint64_t first = off / bs;
    const std::uint64_t last = (off + n.value() - 1) / bs;
    for (std::uint64_t fbn = first; fbn <= last; ++fbn) {
      co_await commit_block(ino, fbn, conn_id, trace_op);
    }
  }
  out.u32(0);
  out.u32(static_cast<std::uint32_t>(n.value()));
}

sim::Task<void> DafsServer::do_read_batch(msg::ViConnection& conn,
                                          rpc::XdrDecoder& dec,
                                          rpc::XdrEncoder& out,
                                          obs::OpId trace_op) {
  // Batch I/O (§2.2): one request names many (fh, off, len, buffer) tuples;
  // the server satisfies each with an RDMA write, then sends one reply.
  const std::uint32_t count = dec.u32();
  struct Entry {
    fs::Ino ino;
    Bytes off;
    Bytes len;
    mem::Vaddr va;
    crypto::Capability cap;
  };
  std::vector<Entry> entries(count);
  for (auto& e : entries) {
    e.ino = dec.u64();
    e.off = dec.u64();
    e.len = dec.u32();
    e.va = dec.u64();
    e.cap = decode_cap(dec);
  }
  if (!dec.ok()) {
    out.u32(err_u32(Errc::invalid_argument));
    co_return;
  }

  std::vector<std::uint32_t> ns;
  ns.reserve(count);
  for (const auto& e : entries) {
    Bytes n = 0;
    net::Buffer data;
    auto attr = fs_.getattr(e.ino);
    if (attr.ok() && e.off < attr.value().size) {
      n = std::min<Bytes>(e.len, attr.value().size - e.off);
      data = net::Buffer::alloc(n);
      auto r = co_await fs_.read(e.ino, e.off, data.mutable_view(), trace_op);
      if (!r.ok()) n = 0;
    }
    if (n > 0) {
      auto st = co_await host_.nic().gm_put(conn.peer_node(), e.va,
                                            std::move(data), e.cap,
                                            /*wait_ack=*/true, trace_op);
      if (!st.ok()) n = 0;
    }
    ns.push_back(static_cast<std::uint32_t>(n));
  }
  out.u32(0);
  for (auto n : ns) out.u32(n);
}

sim::Task<void> DafsServer::do_put_commit(msg::ViConnection& conn,
                                          rpc::XdrDecoder& dec,
                                          rpc::XdrEncoder& out,
                                          obs::OpId trace_op,
                                          std::uint64_t conn_id) {
  const PutCommitArgs a = decode_put_commit(dec);
  if (!dec.ok() || a.len == 0 ||
      static_cast<Bytes>(a.off) + a.len > fs_.block_size()) {
    out.u32(err_u32(Errc::invalid_argument));
    co_return;
  }
  if (!cfg_.writable_refs) {
    out.u32(err_u32(Errc::not_supported));
    co_return;
  }
  const fs::Ino ino = a.fh;
  const auto reject = [&](Errc e) {
    ++put_rejects_;
    host_.flight().record(host_.engine().now().ns,
                          obs::flight::Ev::put_reject, ino, a.fbn,
                          static_cast<std::uint32_t>(e));
    out.u32(err_u32(e));
  };

  // The put must have landed in the (still resident, still exported) cache
  // block this reference named. `revoked` tells the client its reference
  // is dead — fall back to an RPC write; `io_error` means the put itself
  // went missing or was overtaken (fault, loss, concurrent writer) — the
  // client simply replays the put.
  fs::CacheBlock* blk = fs_.cache().peek(fs::CacheKey{ino, a.fbn});
  if (blk == nullptr || !blk->valid || blk->export_seg == 0) {
    reject(Errc::revoked);
    co_return;
  }
  auto cap = host_.nic().capability_for(blk->export_seg);
  if (!cap.ok()) {
    reject(Errc::revoked);
    co_return;
  }
  const nic::Nic::PutRecord* rec = host_.nic().last_put(blk->export_seg);
  if (rec == nullptr || rec->src != conn.peer_node() ||
      rec->va != cap.value().base + a.off || rec->len != a.len ||
      rec->cksum != a.cksum) {
    reject(Errc::io_error);
    co_return;
  }

  // Verified by the NIC's placement record: commit without ever touching
  // the data on the host CPU. The block stays dirty in the cache for the
  // deferred flush.
  fs::BufferCache::pin(*blk);
  fs_.cache().mark_dirty(*blk);
  blk->valid_len = std::max<Bytes>(blk->valid_len, a.off + a.len);
  auto st = fs_.note_put_commit(ino, a.fbn, a.off + a.len);
  fs::BufferCache::unpin(*blk);
  if (!st.ok()) {
    reject(st.code());
    co_return;
  }
  ++put_commits_;
  std::uint64_t version = 0;
  if (cfg_.coherence) {
    version = co_await commit_block(ino, a.fbn, conn_id, trace_op);
  }
  out.u32(0);
  out.u32(a.len);
  out.u64(version);
}

sim::Task<std::uint64_t> DafsServer::commit_block(fs::Ino ino,
                                                  std::uint64_t fbn,
                                                  std::uint64_t writer_conn,
                                                  obs::OpId trace_op) {
  const fs::CacheKey key{ino, fbn};
  const std::uint64_t version = ++share_[key].version;
  // Content fingerprint for the oracle, captured at the bump instant (the
  // commit's content) — later puts can overwrite the block while we await
  // invalidation acks below.
  std::uint32_t cksum = 0;
  if (observer_) {
    if (const auto* blk = fs_.cache().peek(key);
        blk != nullptr && blk->valid && blk->valid_len > 0) {
      const auto sum =
          data_checksum(host_.kernel_as(), blk->va, blk->valid_len);
      ORDMA_CHECK(sum.ok());
      cksum = sum.value();
    }
  }
  // Snapshot the holders (sorted: deterministic delivery order) and
  // invalidate everyone but the writer BEFORE declaring the commit, so no
  // stale cached copy survives past the commit point. share_ may rehash
  // while we await acks, so re-look-up instead of holding a reference.
  std::vector<std::uint64_t> holders;
  {
    const auto& se = share_[key];
    holders.assign(se.holders.begin(), se.holders.end());
  }
  std::sort(holders.begin(), holders.end());
  for (const auto h : holders) {
    if (h == writer_conn) continue;
    if (!co_await send_invalidate(h, ino, fbn, version, trace_op)) {
      share_[key].holders.erase(h);  // unresponsive: stop notifying it
    }
  }
  if (writer_conn != 0) share_[key].holders.insert(writer_conn);
  host_.flight().record(host_.engine().now().ns,
                        obs::flight::Ev::put_commit, ino, fbn,
                        static_cast<std::uint32_t>(version));
  if (observer_) {
    observer_(ino, fbn, version, writer_conn, host_.engine().now(), cksum);
  }
  co_return version;
}

sim::Task<bool> DafsServer::send_invalidate(std::uint64_t conn_id,
                                            fs::Ino ino, std::uint64_t fbn,
                                            std::uint64_t version,
                                            obs::OpId trace_op) {
  auto cit = conns_.find(conn_id);
  if (cit == conns_.end()) co_return true;  // connection gone: nothing holds
  auto cs = cit->second;
  const std::uint32_t id = cs->invals.open();

  rpc::XdrEncoder enc;
  enc.u32(kSrvReqBit | id);
  enc.u32(kInvalidate);
  encode_invalidate(enc, InvalidateMsg{ino, fbn, version});
  const net::Buffer frame = enc.finish();

  // Lossy network: retransmit the invalidation (same server req_id — the
  // client side is idempotent and re-acks) a bounded number of times, then
  // give up and drop the holder: its next read re-registers it.
  bool acked = false;
  for (unsigned attempt = 1; attempt <= kInvalAttempts && !acked; ++attempt) {
    auto& done = cs->invals.arm(id);
    ++invals_sent_;
    host_.flight().record(host_.engine().now().ns,
                          obs::flight::Ev::inval_send, ino, fbn, attempt);
    co_await cs->conn->send(net::Buffer(frame), trace_op);
    acked = (co_await done.wait_for(kInvalTimeout)).has_value();
  }
  cs->invals.close(id);
  if (!acked) ++inval_giveups_;
  co_return acked;
}

sim::Task<net::Buffer> DafsServer::handle(msg::ViConnection& conn,
                                          net::Buffer msg, obs::OpId trace_op,
                                          std::uint64_t conn_id) {
  const auto& cm = host_.costs();
  rpc::XdrDecoder dec(msg);
  const std::uint32_t req_id = dec.u32();
  const std::uint32_t proc = dec.u32();

  co_await host_.cpu().consume_parts(
      trace_op, std::array<sim::Resource::Part, 2>{{
                    {cm.cpu_schedule, "io/sched"},
                    {cm.dafs_server_proc, "io/dafs_server_proc"},
                }});
  ++served_;

  rpc::XdrEncoder out;
  out.u32(req_id);

  switch (proc) {
    case kOpen: {
      auto found = fs_.resolve(dec.str());
      if (!found.ok()) {
        out.u32(err_u32(found.code()));
        break;
      }
      const fs::Ino cur = found.value();
      const auto attr = fs_.getattr(cur).value();
      out.u32(0);
      out.u64(attr.ino);
      out.u64(attr.size);
      out.u32(1);  // open delegation granted
      out.u32(static_cast<std::uint32_t>(fs_.block_size()));
      encode_attr_ref(out, cur);
      break;
    }
    case kClose:
      out.u32(0);
      break;
    case kReadInline:
      co_await do_read(conn, dec, out, /*direct=*/false, trace_op, conn_id);
      break;
    case kReadDirect:
      co_await do_read(conn, dec, out, /*direct=*/true, trace_op, conn_id);
      break;
    case kWriteInline:
      co_await do_write(conn, dec, out, /*direct=*/false, trace_op, conn_id);
      break;
    case kWriteDirect:
      co_await do_write(conn, dec, out, /*direct=*/true, trace_op, conn_id);
      break;
    case kPutCommit:
      co_await do_put_commit(conn, dec, out, trace_op, conn_id);
      break;
    case kGetattr: {
      auto attr = fs_.getattr(dec.u64());
      if (!attr.ok()) {
        out.u32(err_u32(attr.code()));
        break;
      }
      out.u32(0);
      encode_attr(out, attr.value());
      break;
    }
    case kCreate: {
      // Create in the root, or in the directory the leading path names.
      const std::string path = dec.str();
      const auto slash = path.rfind('/');
      const bool nested = slash != std::string::npos;
      auto ino = fs_.resolve(nested ? path.substr(0, slash) : "");
      if (ino.ok()) {
        ino = fs_.create(ino.value(), nested ? path.substr(slash + 1) : path,
                         fs::FileType::regular);
      }
      if (!ino.ok()) {
        out.u32(err_u32(ino.code()));
        break;
      }
      out.u32(0);
      out.u64(ino.value());
      out.u64(0);
      out.u32(static_cast<std::uint32_t>(fs_.block_size()));
      break;
    }
    case kRemove: {
      const std::string path = dec.str();
      if (path.find('/') != std::string::npos) {
        out.u32(err_u32(Errc::not_supported));  // root-level removal only
        break;
      }
      out.u32(err_u32(fs_.remove(fs::ServerFs::kRootIno, path).code()));
      break;
    }
    case kReadBatch:
      co_await do_read_batch(conn, dec, out, trace_op);
      break;
    default:
      out.u32(err_u32(Errc::not_supported));
  }
  co_return out.finish();
}

}  // namespace ordma::nas::dafs
