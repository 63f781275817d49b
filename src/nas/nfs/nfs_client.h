// The three kernel NFS client variants of §3/§5.1, sharing one wire
// protocol and differing only in how READ data reaches the user buffer:
//
//  * NfsClient (standard) — data arrives in-line with the RPC reply and is
//    staged twice: socket buffers → client buffer cache → user buffer.
//  * NfsPrepostClient (RDDP-RPC) — the user buffer is pinned and pre-posted
//    to the NIC per I/O, tagged by the RPC xid; the NIC header-splits the
//    reply and places the payload directly (zero-copy, uncached).
//  * NfsHybridClient (RDDP-RDMA) — the client advertises a registered
//    buffer (registration cached across I/Os) and the server RDMA-writes
//    the data before replying.
//
// All variants resolve paths component-wise with LOOKUP and run over UDP.
#pragma once

#include <string>
#include <vector>

#include "core/file_client.h"
#include "host/host.h"
#include "msg/udp.h"
#include "nas/nfs/nfs_proto.h"
#include "nas/registration.h"
#include "rpc/rpc.h"

namespace ordma::nas::nfs {

class NfsClientBase : public core::FileClient {
 public:
  NfsClientBase(host::Host& host, msg::UdpStack& stack, net::NodeId server,
                std::uint16_t local_port, Bytes transfer_size = KiB(512),
                rpc::RpcRetryPolicy retry = {});

  sim::Task<Result<core::OpenResult>> open(const std::string& path) override;
  sim::Task<Status> close(std::uint64_t fh) override;
  sim::Task<Result<core::OpenResult>> create(const std::string& path) override;
  sim::Task<Status> unlink(const std::string& path) override;

  // NFS transfer size ("UDP/IP is modified so that the NFS transfer size
  // can match the application block size up to 512KB", §5.1).
  Bytes transfer_size() const { return transfer_size_; }

 protected:
  sim::Task<Result<Bytes>> pread_op(std::uint64_t fh, Bytes off,
                                    mem::Vaddr user_va, Bytes len,
                                    obs::OpId op) override;
  sim::Task<Result<Bytes>> pwrite_op(std::uint64_t fh, Bytes off,
                                     mem::Vaddr user_va, Bytes len,
                                     obs::OpId op) override;
  sim::Task<Result<fs::Attr>> getattr_op(std::uint64_t fh,
                                         obs::OpId op) override;

  // One wire READ of at most transfer_size bytes; returns bytes read.
  // `op` is the enclosing file operation's trace context (obs/trace.h).
  virtual sim::Task<Result<Bytes>> read_chunk(std::uint64_t ino, Bytes off,
                                              mem::Vaddr user_va, Bytes len,
                                              obs::OpId op) = 0;

  // One NFS call: the RPC's error, else a non-zero procedure status as
  // the error, else the reply (whose rddp_placed tells a pre-posting
  // caller where the bulk went).
  sim::Task<Result<rpc::RpcReplyInfo>> call(
      std::uint32_t proc, rpc::XdrEncoder args, obs::OpId op = 0,
      const rpc::Prepost* prepost = nullptr);
  // LOOKUP `name` in directory `dir`.
  sim::Task<Result<fs::Attr>> lookup(fs::Ino dir, const std::string& name);
  // Resolve a path ("a/b/c", relative to the export root) to (attr).
  sim::Task<Result<fs::Attr>> resolve(const std::string& path);
  // Resolve the directory part and return (dir ino, leaf name).
  sim::Task<Result<std::pair<fs::Ino, std::string>>> resolve_parent(
      const std::string& path);

  rpc::RpcClient rpc_;
  net::NodeId server_;
  Bytes transfer_size_;
};

class NfsClient final : public NfsClientBase {
 public:
  using NfsClientBase::NfsClientBase;
  const char* protocol_name() const override { return "NFS"; }

 protected:
  sim::Task<Result<Bytes>> read_chunk(std::uint64_t ino, Bytes off,
                                      mem::Vaddr user_va, Bytes len,
                                      obs::OpId op) override;
};

class NfsPrepostClient final : public NfsClientBase {
 public:
  using NfsClientBase::NfsClientBase;
  const char* protocol_name() const override { return "NFS pre-posting"; }

 protected:
  sim::Task<Result<Bytes>> read_chunk(std::uint64_t ino, Bytes off,
                                      mem::Vaddr user_va, Bytes len,
                                      obs::OpId op) override;
};

class NfsHybridClient final : public NfsClientBase {
 public:
  using NfsClientBase::NfsClientBase;
  const char* protocol_name() const override { return "NFS hybrid"; }

  std::uint64_t registrations() const { return regs_.registrations(); }
  // Reads re-issued because the landed bytes failed checksum verification
  // (the server's unacked RDMA write was lost or corrupted).
  std::uint64_t integrity_retries() const { return integrity_retries_; }

 protected:
  sim::Task<Result<Bytes>> read_chunk(std::uint64_t ino, Bytes off,
                                      mem::Vaddr user_va, Bytes len,
                                      obs::OpId op) override;

 private:
  RegistrationCache regs_{host_};
  std::uint64_t integrity_retries_ = 0;
};

}  // namespace ordma::nas::nfs
