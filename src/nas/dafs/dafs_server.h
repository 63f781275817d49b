// The DAFS kernel server: VI transport, open delegations, server-initiated
// RDMA for direct reads/writes, and — in ODAFS mode — lazy export of file
// cache blocks into the NIC's private 64-bit address space with remote
// references piggybacked on every read reply (§4.2.1).
//
// Export lifecycle: a cache block is exported on first read, its reference
// handed to clients, and its segment revoked the moment the buffer cache
// evicts or invalidates the block — making any stale client reference fault
// at the NIC instead of reading reused memory.
//
// ORDMA write path (writable_refs): blocks are exported read-write, clients
// RDMA-write into them and commit with kPutCommit; the server verifies the
// NIC's last-put record (O(1)) instead of touching the data, marks the block
// dirty and defers the disk flush. With `coherence` on, a per-block
// version/holder map drives server-initiated invalidations to every other
// client caching the block, so no client ever reads a stale committed
// version.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "fs/server_fs.h"
#include "host/host.h"
#include "msg/vi.h"
#include "nas/dafs/dafs_proto.h"
#include "rpc/call_table.h"
#include "rpc/reply_cache.h"
#include "rpc/xdr.h"

namespace ordma::nas::dafs {

struct DafsServerConfig {
  // ODAFS: export cache blocks and piggyback references on read replies.
  bool piggyback_refs = false;
  // Completion discipline for the server's VI endpoints (§5.2 compares
  // interrupt-driven and polling servers).
  msg::Completion completion = msg::Completion::block;
  // ORDMA write path: export cache blocks read-write and accept kPutCommit
  // for optimistic client puts into them.
  bool writable_refs = false;
  // Multi-client sharing: per-block version/holder map, versioned
  // piggybacked refs, and invalidations to conflicting holders.
  bool coherence = false;
};

class DafsServer {
 public:
  DafsServer(host::Host& host, fs::ServerFs& fs, DafsServerConfig cfg = {});
  DafsServer(const DafsServer&) = delete;
  DafsServer& operator=(const DafsServer&) = delete;

  std::uint64_t requests_served() const { return served_; }
  std::uint64_t blocks_exported() const { return exported_; }
  host::Host& host() { return host_; }
  // Duplicate (retransmitted) requests answered from the per-connection
  // reply cache / dropped because the original is still executing.
  std::uint64_t dup_replays() const { return dup_replays_; }
  std::uint64_t dup_drops() const { return dup_drops_; }
  // --- ORDMA write path / coherence counters -------------------------------
  std::uint64_t put_commits() const { return put_commits_; }
  std::uint64_t put_rejects() const { return put_rejects_; }
  std::uint64_t invalidations_sent() const { return invals_sent_; }
  std::uint64_t invalidation_giveups() const { return inval_giveups_; }

  // Observer fired at each write's commit point (after invalidations have
  // been acknowledged, before the reply is sent): both optimistic put
  // commits and RPC writes. The coherence oracle hangs off this.
  // `cksum` is the data_checksum of the block's bytes captured atomically
  // at the version bump, so an oracle can map each commit to the content
  // it committed.
  using CommitObserver =
      std::function<void(fs::Ino ino, std::uint64_t fbn,
                         std::uint64_t version, std::uint64_t writer_conn,
                         SimTime when, std::uint32_t cksum)>;
  void set_commit_observer(CommitObserver obs) { observer_ = std::move(obs); }

  // Current commit version of a block (0 = never written under coherence).
  std::uint64_t block_version(fs::Ino ino, std::uint64_t fbn) const {
    auto it = share_.find(fs::CacheKey{ino, fbn});
    return it == share_.end() ? 0 : it->second.version;
  }

 private:
  // An invalidation is sent up to kInvalAttempts times, each attempt
  // waiting kInvalTimeout for the ack; then the server gives up on it.
  static constexpr unsigned kInvalAttempts = 4;
  static constexpr Duration kInvalTimeout = usec(300);

  // A registered client connection: the endpoint for server-initiated
  // invalidations, the table matching their acks (server request ids,
  // kSrvReqBit clear) and the duplicate cache of the client's requests
  // (request ids are unique per connection). Shared with the spawned
  // request handlers, so it outlives however long they run; lives as long
  // as the server (connections never close in the simulated workloads).
  struct ConnState {
    explicit ConnState(sim::Engine& eng) : invals(eng) {}
    std::uint64_t id = 0;
    msg::ViConnection* conn = nullptr;
    rpc::CallTable<void> invals;
    rpc::ReplyCache<net::Buffer> replies;
  };

  // Per-block sharing state: the commit version and which connections hold
  // (or held) a cached copy. Holder registration happens on read; holders
  // that fail to ack an invalidation are dropped.
  struct ShareEntry {
    std::uint64_t version = 0;
    std::unordered_set<std::uint64_t> holders;
  };

  sim::Task<void> accept_loop();
  sim::Task<void> serve_connection(std::unique_ptr<msg::ViConnection> conn);
  // `trace_op` is the request message's trace context; replies and all
  // server-side work (fs, disk, RDMA) are charged against it.
  sim::Task<net::Buffer> handle(msg::ViConnection& conn, net::Buffer msg,
                                obs::OpId trace_op, std::uint64_t conn_id);

  sim::Task<void> do_read(msg::ViConnection& conn, rpc::XdrDecoder& dec,
                          rpc::XdrEncoder& out, bool direct,
                          obs::OpId trace_op, std::uint64_t conn_id);
  sim::Task<void> do_write(msg::ViConnection& conn, rpc::XdrDecoder& dec,
                           rpc::XdrEncoder& out, bool direct,
                           obs::OpId trace_op, std::uint64_t conn_id);
  sim::Task<void> do_read_batch(msg::ViConnection& conn,
                                rpc::XdrDecoder& dec, rpc::XdrEncoder& out,
                                obs::OpId trace_op);
  sim::Task<void> do_put_commit(msg::ViConnection& conn,
                                rpc::XdrDecoder& dec, rpc::XdrEncoder& out,
                                obs::OpId trace_op, std::uint64_t conn_id);

  // Bump the block's version and invalidate every holder except the
  // writer; returns the new version. Fires the commit observer.
  sim::Task<std::uint64_t> commit_block(fs::Ino ino, std::uint64_t fbn,
                                        std::uint64_t writer_conn,
                                        obs::OpId trace_op);
  // Deliver one invalidation (bounded retransmit); false = gave up.
  sim::Task<bool> send_invalidate(std::uint64_t conn_id, fs::Ino ino,
                                  std::uint64_t fbn, std::uint64_t version,
                                  obs::OpId trace_op);

  // Ensure a cache block is exported; append (fbn, ref[, version]) to
  // `out`. `version` is the block's commit version captured by the caller
  // (coherence mode; ignored otherwise).
  void piggyback(rpc::XdrEncoder& out, std::uint64_t fbn,
                 fs::CacheBlock& blk, std::uint64_t version);
  // Export the file system's attribute region (once) and encode a remote
  // reference to `ino`'s record (the ODAFS attribute extension).
  void encode_attr_ref(rpc::XdrEncoder& out, fs::Ino ino);

  host::Host& host_;
  fs::ServerFs& fs_;
  DafsServerConfig cfg_;
  msg::ViListener listener_;
  std::uint64_t served_ = 0;
  std::uint64_t exported_ = 0;
  std::uint64_t dup_replays_ = 0;
  std::uint64_t dup_drops_ = 0;
  std::optional<crypto::Capability> attr_region_cap_;

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::shared_ptr<ConnState>> conns_;
  std::unordered_map<fs::CacheKey, ShareEntry, fs::CacheKeyHash> share_;
  CommitObserver observer_;

  std::uint64_t put_commits_ = 0;
  std::uint64_t put_rejects_ = 0;
  std::uint64_t invals_sent_ = 0;
  std::uint64_t inval_giveups_ = 0;
};

}  // namespace ordma::nas::dafs
