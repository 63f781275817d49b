// The NFS-derivative server: ONC-RPC handlers over the server file system.
// One server binary serves all three client variants — standard clients
// ignore the RDDP framing, pre-posting clients let their NIC split it, and
// hybrid clients receive their data via server-initiated RDMA write
// (§3.1: "NFS hybrid ... uses GM put to perform server-initiated RDMA
// writes to client memory buffers").
#pragma once

#include "fs/server_fs.h"
#include "host/host.h"
#include "msg/udp.h"
#include "nas/nfs/nfs_proto.h"
#include "rpc/rpc.h"

namespace ordma::nas::nfs {

class NfsServer {
 public:
  NfsServer(host::Host& host, msg::UdpStack& stack, fs::ServerFs& fs,
            std::uint16_t port = kNfsPort);
  NfsServer(const NfsServer&) = delete;
  NfsServer& operator=(const NfsServer&) = delete;

  std::uint64_t requests_served() const { return rpc_.requests_served(); }
  const rpc::RpcServer& rpc_server() const { return rpc_; }

 private:
  using Proc =
      sim::Task<rpc::RpcServerReply> (NfsServer::*)(const rpc::RpcCallCtx&);
  // Every procedure: the server's per-call processing charge, then `fn`.
  sim::Task<rpc::RpcServerReply> serve(Proc fn, const rpc::RpcCallCtx& ctx);

  sim::Task<rpc::RpcServerReply> do_lookup(const rpc::RpcCallCtx& ctx);
  sim::Task<rpc::RpcServerReply> do_getattr(const rpc::RpcCallCtx& ctx);
  sim::Task<rpc::RpcServerReply> do_read(const rpc::RpcCallCtx& ctx);
  sim::Task<rpc::RpcServerReply> do_read_hybrid(const rpc::RpcCallCtx& ctx);
  sim::Task<rpc::RpcServerReply> do_write(const rpc::RpcCallCtx& ctx);
  sim::Task<rpc::RpcServerReply> do_create(const rpc::RpcCallCtx& ctx);
  sim::Task<rpc::RpcServerReply> do_remove(const rpc::RpcCallCtx& ctx);
  sim::Task<rpc::RpcServerReply> do_readdir(const rpc::RpcCallCtx& ctx);

  host::Host& host_;
  fs::ServerFs& fs_;
  rpc::RpcServer rpc_;
};

}  // namespace ordma::nas::nfs
