// The user-level DAFS client [20]: a VI connection to the server, an event
// loop matching replies to outstanding requests, in-line and direct
// (server-initiated RDMA) read paths, registration caching for user
// buffers, batch I/O, and open delegations.
//
// Read replies surface any piggybacked server-memory references so the
// caching/ODAFS layer above can populate its ORDMA directory.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/client_cache.h"
#include "core/file_client.h"
#include "host/host.h"
#include "msg/vi.h"
#include "nas/dafs/dafs_proto.h"
#include "nas/registration.h"
#include "nas/wire_util.h"
#include "rpc/call_table.h"
#include "rpc/rpc.h"
#include "rpc/xdr.h"

namespace ordma::nas::dafs {

struct DafsClientConfig {
  msg::Completion completion = msg::Completion::poll;
  // Default transport for FileClient::pread: direct (RDMA) or in-line.
  bool direct_reads = true;
  // Request timeout/retransmit policy (timeout 0 = wait forever, the
  // classic lossless-fabric behavior). Retransmits reuse the req_id so the
  // server's duplicate cache can suppress re-execution.
  rpc::RpcRetryPolicy retry{};
  // Attempts (at least one, each a new req_id) per read or write under
  // retryable failures (recover/recover.h), then the last error surfaces.
  // A retry counts a re-issue, never the first attempt.
  unsigned max_io_attempts = 4;
};

struct OpenInfo {
  std::uint64_t fh = 0;
  Bytes size = 0;
  bool delegation = false;
  Bytes server_block = 0;
  // Remote reference to the file's attribute record in server memory
  // (ODAFS attribute extension; absent when the server is plain DAFS).
  std::optional<cache::RemoteRef> attr_ref;
};

struct DafsReadResult {
  Bytes n = 0;
  // Checksum of the returned data (nas::data_checksum). For direct reads
  // the RDMA write is unacked, so this is the only way the client can tell
  // that the payload actually landed intact.
  std::uint32_t data_cksum = 0;
  net::Buffer inline_data;  // in-line reads only
  // Piggybacked reference records; versions are 0 unless the server runs
  // coherence.
  std::vector<RefRecord> refs;
};

class DafsClient : public core::FileClient {
 public:
  DafsClient(host::Host& host, net::NodeId server, DafsClientConfig cfg = {});

  // --- protocol-level operations (used by OdafsClient and benches) ---------
  // Every operation takes an optional trace-context op id (obs/trace.h)
  // that rides through the VI/GM transport into server-side work.
  sim::Task<Result<OpenInfo>> dafs_open(const std::string& path,
                                        obs::OpId trace_op = 0);
  sim::Task<Status> dafs_close(std::uint64_t fh, obs::OpId trace_op = 0);
  sim::Task<Result<DafsReadResult>> read_inline(std::uint64_t fh, Bytes off,
                                                Bytes len,
                                                obs::OpId trace_op = 0);
  // Data lands at `nic_va` (a registered client buffer) via RDMA write.
  sim::Task<Result<DafsReadResult>> read_direct(std::uint64_t fh, Bytes off,
                                                Bytes len, mem::Vaddr nic_va,
                                                const crypto::Capability& cap,
                                                obs::OpId trace_op = 0);
  sim::Task<Result<Bytes>> write_inline(std::uint64_t fh, Bytes off,
                                        std::span<const std::byte> data,
                                        obs::OpId trace_op = 0);
  sim::Task<Result<Bytes>> write_direct(std::uint64_t fh, Bytes off,
                                        Bytes len, mem::Vaddr nic_va,
                                        const crypto::Capability& cap,
                                        obs::OpId trace_op = 0);

  // Commit an optimistic ORDMA put (kPutCommit): the client has already
  // RDMA-written `len` bytes at offset `off` into server block (fh, fbn)
  // through a piggybacked write reference; this one round trip asks the
  // server to verify the NIC's placement record against `cksum` and make
  // the bytes durable-visible. Returns the block's new commit version
  // (0 when the server runs without coherence).
  struct PutCommitResult {
    Bytes n = 0;
    std::uint64_t version = 0;
  };
  sim::Task<Result<PutCommitResult>> put_commit(std::uint64_t fh,
                                                std::uint64_t fbn, Bytes off,
                                                Bytes len, std::uint32_t cksum,
                                                std::uint32_t flags,
                                                obs::OpId trace_op = 0);

  // Server-initiated invalidation callback (coherence): called from the
  // receive loop — synchronously, before the ack goes back — with the
  // server block's (ino, fbn, new version). Must not await.
  using InvalidateHandler =
      std::function<void(std::uint64_t ino, std::uint64_t fbn,
                         std::uint64_t version)>;
  void set_invalidate_handler(InvalidateHandler h) {
    on_invalidate_ = std::move(h);
  }
  std::uint64_t invalidates_rx() const { return invalidates_rx_; }

  struct BatchEntry {
    std::uint64_t fh = 0;
    Bytes off = 0;
    Bytes len = 0;
    mem::Vaddr nic_va = 0;
    crypto::Capability cap;
  };
  // Batch I/O (§2.2): one RPC, many server-issued RDMA writes.
  sim::Task<Result<std::vector<Bytes>>> read_batch(
      const std::vector<BatchEntry>& entries);

  // Register a user buffer with the NIC (registration-cached). Returns the
  // entry mapping host addresses to NIC addresses.
  using Registered = RegistrationCache::Registered;
  sim::Task<Result<Registered*>> ensure_registered(mem::Vaddr va, Bytes len,
                                                   obs::OpId trace_op = 0) {
    return regs_.ensure(va, len, trace_op);
  }

  // Client-issued RDMA read of server memory (an ORDMA get) over this
  // client's VI connection, which charges the completion pickup. The
  // references it reads through come in DAFS replies, so the connection
  // is up.
  sim::Task<Result<net::Buffer>> rdma_read(mem::Vaddr va, Bytes len,
                                           const crypto::Capability& cap,
                                           obs::OpId trace_op) {
    ORDMA_CHECK_MSG(conn_ != nullptr, "rdma_read before the first call");
    return conn_->rdma_read(va, len, cap, trace_op);
  }

  // getattr body with explicit trace context (no root span of its own);
  // public so OdafsClient's RPC fallback stays inside the caller's op.
  sim::Task<Result<fs::Attr>> getattr_op(std::uint64_t fh,
                                         obs::OpId op) override;

  // --- FileClient --------------------------------------------------------
  sim::Task<Result<core::OpenResult>> open(const std::string& path) override;
  sim::Task<Status> close(std::uint64_t fh) override;
  sim::Task<Result<core::OpenResult>> create(const std::string& path) override;
  sim::Task<Status> unlink(const std::string& path) override;
  const char* protocol_name() const override { return "DAFS"; }

  net::NodeId server_node() const { return server_; }
  host::Host& host() { return host_; }
  std::uint64_t rpcs_issued() const { return calls_.issued(); }
  // --- reliability counters ------------------------------------------------
  std::uint64_t retransmits() const { return rtx_.retransmits; }
  std::uint64_t timeouts() const { return rtx_.timeouts; }
  // Direct reads re-issued because the landed bytes failed verification.
  std::uint64_t integrity_retries() const { return integrity_retries_; }
  // Server cache block size, learned from the first open reply (0 before).
  Bytes server_block_size() const { return server_block_size_; }
  // Details of the most recent dafs_open reply (attribute reference etc.).
  const OpenInfo* last_open_info() const {
    return last_open_ ? &*last_open_ : nullptr;
  }

 protected:
  sim::Task<Result<Bytes>> pread_op(std::uint64_t fh, Bytes off,
                                    mem::Vaddr user_va, Bytes len,
                                    obs::OpId op) override;
  sim::Task<Result<Bytes>> pwrite_op(std::uint64_t fh, Bytes off,
                                     mem::Vaddr user_va, Bytes len,
                                     obs::OpId op) override;

 private:
  // Send `args` as proc `proc` and await the matched reply. Returns the
  // reply body after its status word, or a non-zero status as the error.
  sim::Task<Result<net::Buffer>> call(std::uint32_t proc,
                                      rpc::XdrEncoder args,
                                      obs::OpId trace_op = 0);
  sim::Task<Status> ensure_connected();
  sim::Task<void> rx_loop();

  static void decode_refs(rpc::XdrDecoder& dec, std::uint32_t count,
                          DafsReadResult& out);

  net::NodeId server_;
  DafsClientConfig cfg_;
  obs::Track trk_rpc_;  // retransmit/backoff dead-air spans (explainer)
  std::unique_ptr<msg::ViConnection> conn_;
  rpc::CallTable<net::Buffer> calls_;  // by request id

  rpc::RetransmitCounts rtx_;
  std::uint64_t integrity_retries_ = 0;
  std::uint64_t invalidates_rx_ = 0;
  InvalidateHandler on_invalidate_;

  RegistrationCache regs_;
  cache::DelegationTable delegations_;
  std::unordered_map<std::string, OpenInfo> delegated_opens_;
  std::optional<OpenInfo> last_open_;
  Bytes server_block_size_ = 0;
};

}  // namespace ordma::nas::dafs
