#include "nas/nfs/nfs_server.h"

#include "nas/wire_util.h"

namespace ordma::nas::nfs {

namespace {
std::uint32_t err_u32(Errc e) { return static_cast<std::uint32_t>(e); }
}

NfsServer::NfsServer(host::Host& host, msg::UdpStack& stack,
                     fs::ServerFs& fs, std::uint16_t port)
    : host_(host), fs_(fs), rpc_(host, stack, port) {
  auto bind = [this](std::uint32_t proc, Proc fn) {
    rpc_.register_handler(proc, [this, fn](const rpc::RpcCallCtx& ctx) {
      return serve(fn, ctx);
    });
  };
  bind(kLookup, &NfsServer::do_lookup);
  bind(kGetattr, &NfsServer::do_getattr);
  bind(kRead, &NfsServer::do_read);
  bind(kReadHybrid, &NfsServer::do_read_hybrid);
  bind(kWrite, &NfsServer::do_write);
  bind(kCreate, &NfsServer::do_create);
  bind(kRemove, &NfsServer::do_remove);
  bind(kReaddir, &NfsServer::do_readdir);
}

sim::Task<rpc::RpcServerReply> NfsServer::serve(
    Proc fn, const rpc::RpcCallCtx& ctx) {
  co_await host_.cpu_consume(host_.costs().nfs_server_proc, ctx.trace_op,
                             "io/nfs_server_proc");
  co_return co_await (this->*fn)(ctx);
}

sim::Task<rpc::RpcServerReply> NfsServer::do_lookup(
    const rpc::RpcCallCtx& ctx) {
  rpc::XdrDecoder dec(ctx.args);
  const fs::Ino dir = dec.u64();
  const std::string name = dec.str();
  rpc::RpcServerReply r;
  auto ino = fs_.lookup(dir, name);
  if (!ino.ok()) {
    r.status = err_u32(ino.code());
    co_return r;
  }
  encode_attr(r.results, fs_.getattr(ino.value()).value());
  co_return r;
}

sim::Task<rpc::RpcServerReply> NfsServer::do_getattr(
    const rpc::RpcCallCtx& ctx) {
  rpc::XdrDecoder dec(ctx.args);
  const fs::Ino ino = dec.u64();
  rpc::RpcServerReply r;
  auto attr = fs_.getattr(ino);
  if (!attr.ok()) {
    r.status = err_u32(attr.code());
    co_return r;
  }
  encode_attr(r.results, attr.value());
  co_return r;
}

sim::Task<rpc::RpcServerReply> NfsServer::do_read(
    const rpc::RpcCallCtx& ctx) {
  rpc::XdrDecoder dec(ctx.args);
  const fs::Ino ino = dec.u64();
  const Bytes off = dec.u64();
  const Bytes len = dec.u32();

  rpc::RpcServerReply r;
  net::Buffer data = net::Buffer::alloc(len);
  auto n = co_await fs_.read(ino, off, data.mutable_view(), ctx.trace_op);
  if (!n.ok()) {
    r.status = err_u32(n.code());
    co_return r;
  }
  r.results.u32(static_cast<std::uint32_t>(n.value()));
  r.bulk = data.slice(0, n.value());
  r.gather_send = true;  // NIC gathers from cache pages; no host copy
  co_return r;
}

sim::Task<rpc::RpcServerReply> NfsServer::do_read_hybrid(
    const rpc::RpcCallCtx& ctx) {
  rpc::XdrDecoder dec(ctx.args);
  const fs::Ino ino = dec.u64();
  const Bytes off = dec.u64();
  const Bytes len = dec.u32();
  const mem::Vaddr client_va = dec.u64();
  const crypto::Capability cap = decode_cap(dec);

  rpc::RpcServerReply r;
  net::Buffer data = net::Buffer::alloc(len);
  auto n = co_await fs_.read(ino, off, data.mutable_view(), ctx.trace_op);
  if (!n.ok()) {
    r.status = err_u32(n.code());
    co_return r;
  }
  data = data.slice(0, n.value());
  // The RDMA write is unacked, so its loss is silent at this layer; the
  // client verifies the landed bytes against this checksum and retries.
  const std::uint32_t cksum = data_checksum(data.view());
  if (n.value() > 0) {
    // In-order reliable delivery: the RPC reply sent after the RDMA write
    // arrives behind the data, so the server does not wait for the ack.
    auto st = co_await host_.nic().gm_put(ctx.client, client_va,
                                          std::move(data), cap,
                                          /*wait_ack=*/false, ctx.trace_op);
    if (!st.ok()) {
      r.status = err_u32(st.code());
      co_return r;
    }
  }
  r.results.u32(static_cast<std::uint32_t>(n.value()));
  r.results.u32(cksum);
  co_return r;
}

sim::Task<rpc::RpcServerReply> NfsServer::do_write(
    const rpc::RpcCallCtx& ctx) {
  rpc::XdrDecoder dec(ctx.args);
  const fs::Ino ino = dec.u64();
  const Bytes off = dec.u64();
  const auto data = dec.opaque();

  rpc::RpcServerReply r;
  // Incoming write data is staged through kernel buffers (copy).
  co_await host_.copy(data.size(), ctx.trace_op);
  auto n = co_await fs_.write(ino, off, data, ctx.trace_op);
  if (!n.ok()) {
    r.status = err_u32(n.code());
    co_return r;
  }
  r.results.u32(static_cast<std::uint32_t>(n.value()));
  encode_attr(r.results, fs_.getattr(ino).value());
  co_return r;
}

sim::Task<rpc::RpcServerReply> NfsServer::do_create(
    const rpc::RpcCallCtx& ctx) {
  rpc::XdrDecoder dec(ctx.args);
  const fs::Ino dir = dec.u64();
  const std::string name = dec.str();
  const auto type = static_cast<fs::FileType>(dec.u32());
  rpc::RpcServerReply r;
  auto ino = fs_.create(dir, name, type);
  if (!ino.ok()) {
    r.status = err_u32(ino.code());
    co_return r;
  }
  encode_attr(r.results, fs_.getattr(ino.value()).value());
  co_return r;
}

sim::Task<rpc::RpcServerReply> NfsServer::do_remove(
    const rpc::RpcCallCtx& ctx) {
  rpc::XdrDecoder dec(ctx.args);
  const fs::Ino dir = dec.u64();
  const std::string name = dec.str();
  rpc::RpcServerReply r;
  r.status = err_u32(fs_.remove(dir, name).code());
  co_return r;
}

sim::Task<rpc::RpcServerReply> NfsServer::do_readdir(
    const rpc::RpcCallCtx& ctx) {
  rpc::XdrDecoder dec(ctx.args);
  const fs::Ino dir = dec.u64();
  rpc::RpcServerReply r;
  auto names = fs_.readdir(dir);
  if (!names.ok()) {
    r.status = err_u32(names.code());
    co_return r;
  }
  r.results.u32(static_cast<std::uint32_t>(names.value().size()));
  for (const auto& n : names.value()) r.results.str(n);
  co_return r;
}

}  // namespace ordma::nas::nfs
