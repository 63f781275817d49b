// Optimistic DAFS client (§4.2): the user-level client file cache interposed
// over the DAFS client, extended with the ORDMA directory.
//
// Key principles implemented exactly as the paper lists them:
//  (a) the client maintains a directory of remote references to server
//      memory, built lazily from references the server piggybacks on each
//      RPC response — stored in cache block headers, which outnumber data
//      blocks so references survive data eviction;
//  (b) directory entries are never eagerly invalidated — a stale reference
//      faults at the server NIC and comes back as a recoverable exception;
//  (c) every ORDMA is prepared to catch that exception and retry via RPC,
//      whose reply carries a fresh reference.
//
// With use_ordma=false this is the plain cached DAFS client the paper
// compares against in Figures 6 and 7.
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>

#include "cache/client_cache.h"
#include "common/page_table.h"
#include "core/file_client.h"
#include "nas/dafs/dafs_client.h"
#include "obs/signals.h"
#include "policy/policy.h"

namespace ordma::nas::odafs {

// How pwrite reaches the server (§4.2.2 writes):
//  * rpc_through  — classic write-through RPC (the pre-existing path).
//  * put_through  — optimistic ORDMA put into the server's cache block via
//    a piggybacked write reference, then a 1-RTT kPutCommit the server
//    verifies against the NIC's placement record (no per-byte server CPU).
//    Falls back to rpc_through when no reference is held or it is revoked.
//  * write_back   — dirty the client's cache block and return; a bounded
//    dirty pool is flushed through the put path on pressure, sync(), close
//    and server invalidations.
enum class WritePolicy { rpc_through, put_through, write_back };

struct OdafsClientConfig {
  cache::ClientCache::Config cache;
  dafs::DafsClientConfig dafs;
  bool use_ordma = true;   // false → "DAFS" bars in Figs. 6/7
  bool inline_rpc = false;  // RPC path: in-line replies instead of direct
  // Cache-internal read-ahead: misses within one application request are
  // fetched with this much concurrency ("the cache starts internal
  // read-ahead up to the size of the application request", §5.2).
  unsigned read_ahead_window = 8;
  // Attempts (at least one) per RPC block fetch, put + commit and RPC
  // write under retryable failures (recover/recover.h), then the last
  // error surfaces. A retry counts a re-issue, never the first attempt.
  unsigned max_fetch_attempts = 3;
  // Write path (requires a server with writable_refs for the put paths;
  // puts degrade to RPC write-through when the server refuses them).
  WritePolicy write_policy = WritePolicy::rpc_through;
  // Adaptive per-op protocol selection (policy/policy.h). Disabled by
  // default: with policy.enabled=false the client behaves bit-identically
  // to one built before the engine existed (no decisions, no extra state
  // transitions, no RNG either way). When enabled, the engine picks the
  // write arm as well, and `write_policy` above is not consulted.
  policy::PolicyConfig policy;
};

class OdafsClient : public core::FileClient {
 public:
  OdafsClient(host::Host& host, net::NodeId server, OdafsClientConfig cfg);

  // --- FileClient ---------------------------------------------------------
  sim::Task<Result<core::OpenResult>> open(const std::string& path) override;
  sim::Task<Status> close(std::uint64_t fh) override;
  sim::Task<Result<core::OpenResult>> create(const std::string& path) override;
  sim::Task<Status> unlink(const std::string& path) override;
  // Flush every dirty write-back block through the put path (RPC fallback
  // per block); returns the last flush error, Ok when all landed.
  sim::Task<Status> sync() override;
  const char* protocol_name() const override {
    return cfg_.use_ordma ? "ODAFS" : "DAFS (cached)";
  }

  // Fetch one cache block (read path used by pread; exposed for benches
  // that want per-block latencies). `op` is the enclosing file operation's
  // trace context (obs/trace.h).
  sim::Task<Result<cache::ClientCache::Header*>> fetch_block(
      std::uint64_t fh, std::uint64_t idx, obs::OpId op = 0);

  cache::ClientCache& block_cache() { return cache_; }
  dafs::DafsClient& dafs() { return dafs_; }

  std::uint64_t ordma_reads() const { return ordma_reads_; }
  std::uint64_t ordma_faults() const { return ordma_faults_; }
  std::uint64_t rpc_reads() const { return rpc_reads_; }
  std::uint64_t attr_ordma() const { return attr_ordma_; }
  // Direct RPC reads re-issued because landed bytes failed verification,
  // and block fetches that exhausted max_fetch_attempts.
  std::uint64_t integrity_retries() const { return integrity_retries_; }
  std::uint64_t fetch_give_ups() const { return fetch_give_ups_; }
  // --- ORDMA write path / coherence counters -------------------------------
  std::uint64_t puts_issued() const { return puts_issued_; }
  std::uint64_t put_commits() const { return put_commits_; }
  // Commit attempts the server refused (put overtaken/lost → replayed).
  std::uint64_t put_rejects() const { return put_rejects_; }
  // Writes that degraded to RPC write-through (no/revoked reference).
  std::uint64_t put_fallbacks() const { return put_fallbacks_; }
  // Server-initiated invalidations processed / clean copies dropped /
  // poisoned fills refetched.
  std::uint64_t invalidates_rx() const { return dafs_.invalidates_rx(); }
  std::uint64_t inval_drops() const { return inval_drops_; }
  std::uint64_t inval_refetches() const { return inval_refetches_; }
  std::uint64_t wb_flushes() const { return wb_flushes_; }

  // --- Adaptive policy (policy/policy.h) -----------------------------------
  // The per-op protocol-selection engine fed by the signal plane the
  // FileClient base exports; enabled via OdafsClientConfig::policy.
  const policy::PolicyEngine& protocol_policy() const { return policy_; }

 private:
  sim::Task<Status> ensure_slab_registered(obs::OpId op);
  sim::Task<Result<Bytes>> pread_op(std::uint64_t fh, Bytes off,
                                    mem::Vaddr user_va, Bytes len,
                                    obs::OpId op) override;
  sim::Task<Result<Bytes>> pwrite_op(std::uint64_t fh, Bytes off,
                                     mem::Vaddr user_va, Bytes len,
                                     obs::OpId op) override;
  sim::Task<Result<fs::Attr>> getattr_op(std::uint64_t fh,
                                         obs::OpId op) override;

  // Harvest piggybacked references into cache headers.
  void store_refs(std::uint64_t fh, const dafs::DafsReadResult& res);

  // pwrite body for one concrete arm (`wp` is the effective policy for
  // this op — the static config, or the engine's per-op choice).
  sim::Task<Result<Bytes>> pwrite_arm(std::uint64_t fh, Bytes off,
                                      mem::Vaddr user_va, Bytes len,
                                      WritePolicy wp, obs::OpId op);

  // --- ORDMA write path ----------------------------------------------------
  // Optimistic put of `data` at absolute file offset `pos` (all within one
  // server block) + kPutCommit, through a held write reference. Returns
  // the block's new commit version; not_found = no usable reference (none
  // held, or the server found it dead). On any failure the caller falls
  // back to rpc_write.
  sim::Task<Result<std::uint64_t>> put_piece(std::uint64_t fh, Bytes pos,
                                             std::span<const std::byte> data,
                                             std::uint32_t flags,
                                             obs::OpId op);
  // Idempotent RPC write-through of `data` at `off`, re-issued (bounded by
  // max_fetch_attempts) on retryable failures.
  sim::Task<Result<Bytes>> rpc_write(std::uint64_t fh, Bytes off,
                                     std::span<const std::byte> data,
                                     obs::OpId op);
  // Write-back pwrite body and flush machinery.
  sim::Task<Result<Bytes>> pwrite_wb(std::uint64_t fh, Bytes off,
                                     mem::Vaddr user_va, Bytes len,
                                     obs::OpId op);
  sim::Task<Status> flush_block(cache::BlockKey key, obs::OpId op,
                                bool drop_after);
  sim::Task<Status> flush_oldest(obs::OpId op);
  sim::Task<Status> sync_op(obs::OpId op);
  // Update locally cached blocks covered by a completed write (in place).
  void apply_local_write(std::uint64_t fh, Bytes off,
                         std::span<const std::byte> data,
                         std::uint64_t version);
  // Server-initiated invalidation (called from the DAFS client's receive
  // loop; must not await — flushes are spawned, not awaited).
  void handle_invalidate(std::uint64_t ino, std::uint64_t fbn,
                         std::uint64_t version);
  // write_back: flush the oldest dirty block once this many (a quarter of
  // the data blocks) are dirty, so fills always have unpinned blocks to
  // steal.
  std::size_t writeback_high_water() const;

  struct Inflight {
    explicit Inflight(sim::Engine& eng) : done(eng) {}
    sim::Event<> done;
    // Set by a racing invalidation: the bytes this fill gathered may
    // predate the committed write — discard and refetch.
    bool poisoned = false;
  };

  OdafsClientConfig cfg_;
  dafs::DafsClient dafs_;
  cache::ClientCache cache_;
  cache::BlockMap<std::shared_ptr<Inflight>> inflight_;
  std::optional<dafs::DafsClient::Registered> slab_reg_;
  PageTable<Bytes> sizes_;  // fh → known file size
  std::unordered_map<std::uint64_t, cache::RemoteRef> attr_refs_;
  Bytes server_block_ = 0;

  std::uint64_t ordma_reads_ = 0;
  std::uint64_t ordma_faults_ = 0;
  std::uint64_t rpc_reads_ = 0;
  std::uint64_t attr_ordma_ = 0;
  std::uint64_t integrity_retries_ = 0;
  std::uint64_t fetch_give_ups_ = 0;

  // FIFO of blocks dirtied by write_back (clean→dirty edges only; entries
  // whose block was flushed or invalidated meanwhile are skipped).
  std::deque<cache::BlockKey> wb_fifo_;
  std::uint64_t puts_issued_ = 0;
  std::uint64_t put_commits_ = 0;
  std::uint64_t put_rejects_ = 0;
  std::uint64_t put_fallbacks_ = 0;
  std::uint64_t inval_drops_ = 0;
  std::uint64_t inval_refetches_ = 0;
  std::uint64_t wb_flushes_ = 0;

  policy::PolicyEngine policy_;
};

}  // namespace ordma::nas::odafs
