#include "nas/odafs/odafs_client.h"

#include <algorithm>
#include <cstdio>

#include "nas/wire_util.h"
#include "obs/sampler.h"
#include "recover/recover.h"

namespace ordma::nas::odafs {

OdafsClient::OdafsClient(host::Host& host, net::NodeId server,
                         OdafsClientConfig cfg)
    : FileClient(host),
      cfg_(cfg),
      dafs_(host, server, cfg.dafs),
      cache_(host, cfg.cache),
      policy_(cfg.policy, &signals_) {
  dafs_.set_invalidate_handler(
      [this](std::uint64_t ino, std::uint64_t fbn, std::uint64_t version) {
        handle_invalidate(ino, fbn, version);
      });
}

std::size_t OdafsClient::writeback_high_water() const {
  return std::max<std::size_t>(1, cache_.data_capacity() / 4);
}

sim::Task<Status> OdafsClient::ensure_slab_registered(obs::OpId op) {
  if (slab_reg_) co_return Status::Ok();
  auto reg = co_await dafs_.ensure_registered(cache_.slab_base(),
                                              cache_.slab_len(), op);
  if (!reg.ok()) co_return reg.status();
  // Concurrent callers resolve to the same registration (deduplicated by
  // DafsClient's registration cache).
  slab_reg_ = *reg.value();
  co_return Status::Ok();
}

void OdafsClient::store_refs(std::uint64_t fh,
                             const dafs::DafsReadResult& res) {
  if (!cfg_.use_ordma || server_block_ == 0) return;
  const Bytes cbs = cache_.block_size();
  const Bytes sbs = server_block_;
  if (cbs > sbs) return;  // one client block would need multiple ORDMAs
  for (const RefRecord& rec : res.refs) {
    const cache::RemoteRef& ref = rec.ref;
    const Bytes server_off = rec.fbn * sbs;
    for (Bytes sub = 0; sub + cbs <= sbs; sub += cbs) {
      const std::uint64_t idx = (server_off + sub) / cbs;
      auto& hdr = cache_.ensure(cache::BlockKey{fh, idx});
      cache::RemoteRef sub_ref = ref;
      sub_ref.va = ref.va + sub;
      sub_ref.len = cbs;
      cache_.set_ref(hdr, sub_ref);
      // Coherence servers piggyback the block's commit version; remember
      // the newest one seen so refills can be tagged conservatively.
      hdr.ref_version = std::max(hdr.ref_version, rec.version);
    }
  }
}

sim::Task<Result<cache::ClientCache::Header*>> OdafsClient::fetch_block(
    std::uint64_t fh, std::uint64_t idx, obs::OpId op) {
  const auto& cm = host_.costs();
  const Bytes cbs = cache_.block_size();
  const cache::BlockKey key{fh, idx};

  // A block being filled may already have a data slot attached (it is the
  // RDMA target), so the in-flight check must come before the hit check —
  // otherwise a concurrent reader would consume bytes that have not
  // arrived yet.
  for (;;) {
    if (auto* s = inflight_.find(key)) {
      auto shared = s->value;
      co_await shared->done.wait();
      auto* again = cache_.find(key);
      if (again && again->has_data()) co_return again;
      co_return Errc::io_error;  // the fetch we joined failed
    }
    auto* hit = cache_.find(key);
    if (!(hit && hit->has_data())) break;
    host_.flight().record(host_.engine().now().ns,
                          obs::flight::Ev::cache_hit, fh, idx);
    co_await host_.cpu_consume(cm.cache_hit_proc, op, "io/cache_hit");
    // An invalidation (or a steal) may have dropped the data during the
    // await. Look again rather than pin across it — the invalidation
    // handler skips pinned blocks, which would keep a stale copy — and
    // fetch the block anew (or join a fill already under way) if it went.
    if (auto* again = cache_.peek(key); again && again->has_data()) {
      co_return again;
    }
  }
  auto flight = std::make_shared<Inflight>(host_.engine());
  inflight_.try_emplace(key).first->value = flight;
  struct FlightGuard {
    OdafsClient* self;
    cache::BlockKey key;
    std::shared_ptr<Inflight> flight;
    ~FlightGuard() {
      self->inflight_.erase(key);
      flight->done.set();
    }
  } flight_guard{this, key, flight};

  // Pin the header so cache pressure from concurrent read-ahead can't
  // steal the block out from under this fill.
  auto& hdr = cache_.ensure(key);
  ++hdr.pin;
  struct PinGuard {
    cache::ClientCache::Header* h;
    ~PinGuard() { --h->pin; }
  } pin_guard{&hdr};

  host_.flight().record(host_.engine().now().ns, obs::flight::Ev::cache_miss,
                        fh, idx);
  co_await host_.cpu_consume(cm.cache_miss_proc, op, "io/cache_miss");
  co_await ensure_slab_registered(op);

  const Bytes block_off = idx * cbs;
  const Bytes* known = sizes_.find(fh);
  const Bytes file_size = known == nullptr ? ~Bytes{0} : *known;
  const Bytes want =
      block_off >= file_size ? 0 : std::min<Bytes>(cbs, file_size - block_off);
  if (want == 0) {
    // Nothing to read (at or past EOF): an empty valid block.
    cache_.attach_data(hdr, 0);
    co_return &hdr;
  }

  // The fill runs in rounds: normally exactly one, but a server
  // invalidation that races the fill poisons it (the gathered bytes may
  // predate the committed write) and the round repeats. Bounded so a
  // revalidation storm surfaces as a clean error instead of livelock.
  constexpr unsigned kMaxPoisonRounds = 16;
  for (unsigned round = 0;; ++round) {
    flight->poisoned = false;
    bool filled = false;

    // --- ORDMA fast path (§4.2) --------------------------------------------
    // The adaptive policy may veto a held reference (e.g. a fault storm
    // made exceptions dearer than straight RPC); vetoed fetches take the
    // RPC path below, whose reply refreshes the reference anyway.
    bool try_ordma = cfg_.use_ordma && hdr.ref;
    if (try_ordma && policy_.enabled() && round == 0) {
      try_ordma = policy_.choose_read() == policy::ReadMech::ordma;
    }
    if (try_ordma) {
      const auto ref = *hdr.ref;
      const SimTime ot0 = host_.engine().now();
      auto res = co_await dafs_.rdma_read(ref.va, want, ref.cap, op);
      const double ordma_us = (host_.engine().now() - ot0).to_us();
      if (res.ok()) {
        ++ordma_reads_;
        signals_.ref_hit_rate.update(1.0);
        signals_.exception_rate.update(0.0);
        if (policy_.enabled()) {
          policy_.observe_read(policy::ReadMech::ordma, ordma_us, false);
        }
        cache_.attach_data(hdr, want);
        cache_.write_block(hdr, res.value().view());  // NIC-placed: no copy
        filled = true;
      } else {
        // Recoverable exception: drop the stale reference, retry via RPC.
        ++ordma_faults_;
        signals_.exception_rate.update(1.0);
        if (policy_.enabled()) {
          policy_.observe_read(policy::ReadMech::ordma, ordma_us, true);
        }
        obs::note_op_exception(op);
        cache_.clear_ref(hdr);
      }
    }

    // --- RPC path (bounded retry; direct fills verified by checksum) -------
    if (!filled) {
      ++rpc_reads_;
      signals_.ref_hit_rate.update(0.0);
      const SimTime rt0 = host_.engine().now();
      dafs::DafsReadResult result;
      const Status fetched = co_await recover::bounded(
          cfg_.max_fetch_attempts,
          recover::Site{host_, stats_.retries, op, &fetch_give_ups_},
          [&]() -> sim::Task<Status> {
            if (cfg_.inline_rpc) {
              auto res = co_await dafs_.read_inline(fh, block_off, want, op);
              if (!res.ok()) co_return res.status();
              result = std::move(res.value());
              cache_.attach_data(hdr, result.n);
              // In-line data must be copied from the communication buffer
              // into the file cache (the Table 3 "in cache" copy).
              co_await host_.copy(result.n, op);
              cache_.write_block(
                  hdr, result.inline_data.view().subspan(0, result.n));
              co_return Status::Ok();
            }
            const mem::Vaddr va = cache_.attach_data(hdr, want);
            auto res = co_await dafs_.read_direct(fh, block_off, want,
                                                  slab_reg_->nic_va(va),
                                                  slab_reg_->cap, op);
            if (!res.ok()) co_return res.status();
            // The server's RDMA write into the cache slab is unacked: verify
            // the landed bytes before exposing the block to readers.
            const auto landed =
                data_checksum(host_.user_as(), va, res.value().n);
            if (!landed.ok()) co_return Status(Errc::access_fault);
            if (landed.value() != res.value().data_cksum) {
              ++integrity_retries_;
              co_return Status(Errc::io_error);
            }
            result = std::move(res.value());
            hdr.valid = result.n;
            co_return Status::Ok();
          });
      if (!fetched.ok()) co_return fetched;
      if (policy_.enabled()) {
        policy_.observe_read(policy::ReadMech::rpc,
                             (host_.engine().now() - rt0).to_us(), false);
      }
      store_refs(fh, result);
    }

    // Tag the data copy with the newest commit version this client knows
    // for the block (conservative: the gathered bytes are at least this
    // new), so invalidations can tell stale copies from fresh ones.
    hdr.version = hdr.ref_version;
    if (!flight->poisoned) co_return &hdr;
    if (round + 1 >= kMaxPoisonRounds) co_return Errc::io_error;
    ++inval_refetches_;
  }
}

// ---------------------------------------------------------------------------
// FileClient
// ---------------------------------------------------------------------------

sim::Task<Result<core::OpenResult>> OdafsClient::open(
    const std::string& path) {
  // Go through dafs_open (not dafs_.open) when undelgated so the attribute
  // reference in the reply is visible; delegated re-opens stay local.
  auto res = co_await dafs_.open(path);
  if (res.ok()) {
    *sizes_.try_emplace(res.value().fh).first = res.value().size;
    server_block_ = dafs_.server_block_size();
    if (const auto* info = dafs_.last_open_info();
        info && info->fh == res.value().fh && info->attr_ref) {
      attr_refs_[info->fh] = *info->attr_ref;
    }
  }
  co_return res;
}

sim::Task<Status> OdafsClient::close(std::uint64_t fh) {
  if (cfg_.use_ordma && (cfg_.write_policy == WritePolicy::write_back ||
                         policy_.may_write_back())) {
    // close-to-open consistency: dirty blocks reach the server before the
    // close RPC does. With the adaptive policy, *any* op may have taken
    // the write-back arm, so the sync must not depend on the static arm.
    auto st = co_await sync();
    if (!st.ok()) co_return st;
  }
  co_return co_await dafs_.close(fh);
}

sim::Task<Result<Bytes>> OdafsClient::pread_op(std::uint64_t fh, Bytes off,
                                               mem::Vaddr user_va, Bytes len,
                                               obs::OpId op) {
  co_await host_.cpu_consume(host_.costs().cpu_syscall, op, "io/syscall");
  const Bytes cbs = cache_.block_size();

  // Cache-internal read-ahead (§5.2): keep up to `window` block fetches in
  // flight ahead of the in-order consume position. Prefetched blocks are
  // consumed (copied out) as soon as the sequential scan reaches them, so a
  // small cache is never thrashed by its own read-ahead.
  const std::uint64_t first_idx = off / cbs;
  const std::uint64_t last_idx = len == 0 ? first_idx : (off + len - 1) / cbs;
  std::uint64_t prefetched = first_idx;
  // Clamp so concurrent fills can never pin the whole data pool.
  const std::uint64_t window = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(cfg_.read_ahead_window,
                                 cache_.data_capacity() / 2));

  struct PrefetchTracker {
    explicit PrefetchTracker(sim::Engine& eng) : drained(eng) {}
    unsigned live = 0;
    bool closing = false;
    sim::Event<> drained;
  };
  auto tracker = std::make_shared<PrefetchTracker>(host_.engine());

  auto issue_prefetches = [&](std::uint64_t consume_idx) {
    const std::uint64_t limit =
        std::min<std::uint64_t>(last_idx + 1, consume_idx + window);
    while (prefetched < limit) {
      const std::uint64_t idx = prefetched++;
      ++tracker->live;
      host_.engine().spawn(
          [](OdafsClient& self, std::uint64_t fh, std::uint64_t idx,
             std::shared_ptr<PrefetchTracker> t,
             obs::OpId op) -> sim::Task<void> {
            (void)co_await self.fetch_block(fh, idx, op);
            if (--t->live == 0 && t->closing) t->drained.set();
          }(*this, fh, idx, tracker, op));
    }
  };
  struct DrainGuard {
    // pread must not return while its prefetches are still pinning blocks.
    std::shared_ptr<PrefetchTracker> t;
    sim::Task<void> drain() {
      t->closing = true;
      if (t->live > 0) co_await t->drained.wait();
    }
  } drain_guard{tracker};

  Bytes done = 0;
  while (done < len) {
    const Bytes pos = off + done;
    const std::uint64_t idx = pos / cbs;
    const Bytes boff = pos % cbs;
    const Bytes chunk = std::min<Bytes>(len - done, cbs - boff);

    if (window > 1) issue_prefetches(idx);
    auto hdr = co_await fetch_block(fh, idx, op);
    if (!hdr.ok()) {
      co_await drain_guard.drain();
      co_return hdr.status();
    }
    const auto& h = *hdr.value();
    if (boff >= h.valid) break;  // EOF inside this block
    const Bytes avail = std::min<Bytes>(chunk, h.valid - boff);

    // Cache block → user buffer copy. The bytes move before the copy's CPU
    // time is charged: the block may be dropped or refilled during it.
    const Status copied =
        mem::copy(host_.user_as(), cache_.block_va(h) + boff, host_.user_as(),
                  user_va + done, avail);
    co_await host_.copy(avail, op);
    if (!copied.ok()) {
      co_await drain_guard.drain();
      co_return Errc::access_fault;
    }
    done += avail;
    if (avail < chunk) break;
  }
  co_await drain_guard.drain();
  co_return done;
}

void OdafsClient::apply_local_write(std::uint64_t fh, Bytes off,
                                    std::span<const std::byte> data,
                                    std::uint64_t version) {
  // Update any cached blocks the write covers (in place — outstanding
  // references stay usable). A non-zero commit version retags the copies:
  // they now hold the committed bytes.
  const Bytes cbs = cache_.block_size();
  Bytes done = 0;
  while (done < data.size()) {
    const Bytes pos = off + done;
    const std::uint64_t idx = pos / cbs;
    const Bytes boff = pos % cbs;
    const Bytes chunk = std::min<Bytes>(data.size() - done, cbs - boff);
    if (auto* h = cache_.find(cache::BlockKey{fh, idx});
        h && h->has_data()) {
      ORDMA_CHECK(host_.user_as()
                      .write(cache_.block_va(*h) + boff,
                             data.subspan(done, chunk))
                      .ok());
      h->valid = std::max<Bytes>(h->valid, boff + chunk);
      if (version != 0) {
        h->version = std::max(h->version, version);
        h->ref_version = std::max(h->ref_version, version);
      }
    }
    done += chunk;
  }
}

namespace {
policy::WriteArm to_arm(WritePolicy wp) {
  switch (wp) {
    case WritePolicy::rpc_through: return policy::WriteArm::rpc;
    case WritePolicy::put_through: return policy::WriteArm::put;
    case WritePolicy::write_back: return policy::WriteArm::write_back;
  }
  return policy::WriteArm::rpc;
}
WritePolicy to_write_policy(policy::WriteArm arm) {
  switch (arm) {
    case policy::WriteArm::rpc: return WritePolicy::rpc_through;
    case policy::WriteArm::put: return WritePolicy::put_through;
    case policy::WriteArm::write_back: return WritePolicy::write_back;
  }
  return WritePolicy::rpc_through;
}
}  // namespace

sim::Task<Result<Bytes>> OdafsClient::pwrite_op(std::uint64_t fh, Bytes off,
                                                mem::Vaddr user_va, Bytes len,
                                                obs::OpId op) {
  WritePolicy wp = cfg_.write_policy;
  const bool adaptive = cfg_.use_ordma && policy_.adapts_writes();
  if (adaptive) wp = to_write_policy(policy_.choose_write());
  const SimTime t0 = host_.engine().now();
  const std::uint64_t fallbacks0 = put_fallbacks_;
  auto r = co_await pwrite_arm(fh, off, user_va, len, wp, op);
  if (adaptive && r.ok()) {
    policy_.observe_write(to_arm(wp), (host_.engine().now() - t0).to_us(),
                          put_fallbacks_ > fallbacks0);
  }
  co_return r;
}

sim::Task<Result<Bytes>> OdafsClient::pwrite_arm(std::uint64_t fh, Bytes off,
                                                 mem::Vaddr user_va,
                                                 Bytes len, WritePolicy wp,
                                                 obs::OpId op) {
  if (cfg_.use_ordma && wp == WritePolicy::write_back) {
    co_return co_await pwrite_wb(fh, off, user_va, len, op);
  }
  co_await host_.cpu_consume(host_.costs().cpu_syscall, op, "io/syscall");
  // Write-through: update the server, then refresh our cached copy. Server
  // cache blocks are updated in place so outstanding references stay
  // usable (§4.2.2: writes also update file state server-side).
  std::vector<std::byte> data(len);
  if (!host_.user_as().read(user_va, data).ok()) {
    co_return Errc::access_fault;
  }

  if (cfg_.use_ordma && wp == WritePolicy::put_through &&
      server_block_ != 0 && len > 0) {
    // Optimistic ORDMA write-through: per covered server block, put the
    // bytes straight into the server's cache block and commit with one
    // round trip; pieces without a usable reference degrade to RPC.
    const Bytes sbs = server_block_;
    Bytes done = 0;
    while (done < len) {
      const Bytes pos = off + done;
      const Bytes piece = std::min<Bytes>(len - done, sbs - pos % sbs);
      const std::span<const std::byte> bytes(data.data() + done, piece);
      std::uint64_t version = 0;
      auto v = co_await put_piece(fh, pos, bytes, 0, op);
      if (v.ok()) {
        version = v.value();
      } else {
        // Any exhausted put failure degrades to RPC, not just a dead
        // reference: an uncommitted put is never applied server-side, so
        // replaying the bytes inline is safe even when the put was lost
        // mid-resolve (revoke fire) or the commit ack went missing.
        ++put_fallbacks_;
        auto n = co_await rpc_write(fh, pos, bytes, op);
        if (!n.ok()) co_return n.status();
      }
      apply_local_write(fh, pos, bytes, version);
      done += piece;
    }
    auto& size = *sizes_.try_emplace(fh).first;
    size = std::max<Bytes>(size, off + len);
    co_return len;
  }

  auto n = co_await rpc_write(fh, off, data, op);
  if (!n.ok()) co_return n.status();

  auto& size = *sizes_.try_emplace(fh).first;
  size = std::max<Bytes>(size, off + n.value());

  apply_local_write(
      fh, off, std::span<const std::byte>(data.data(), n.value()), 0);
  co_return n.value();
}

sim::Task<Result<std::uint64_t>> OdafsClient::put_piece(
    std::uint64_t fh, Bytes pos, std::span<const std::byte> data,
    std::uint32_t flags, obs::OpId op) {
  if (!cfg_.use_ordma || server_block_ == 0) co_return Errc::not_supported;
  const Bytes cbs = cache_.block_size();
  const Bytes sbs = server_block_;
  if (cbs > sbs || data.empty()) co_return Errc::not_supported;
  const std::uint64_t sfbn = pos / sbs;
  const Bytes soff = pos % sbs;
  ORDMA_CHECK(soff + data.size() <= sbs);

  // Any sibling client block of the server block may hold a usable write
  // reference: the piggybacked capability covers the whole exported server
  // block, so cap.base is the block's base NIC address.
  const std::uint64_t first = sfbn * sbs / cbs;
  const std::uint64_t count = sbs / cbs;
  std::optional<crypto::Capability> cap;
  for (std::uint64_t i = 0; i < count && !cap; ++i) {
    if (auto* h = cache_.peek(cache::BlockKey{fh, first + i});
        h && h->ref &&
        crypto::allows(h->ref->cap.perm, crypto::SegPerm::write)) {
      cap = h->ref->cap;
    }
  }
  if (!cap) co_return Errc::not_found;

  const std::uint32_t cksum = data_checksum(data);
  co_return co_await recover::bounded(
      cfg_.max_fetch_attempts, recover::Site{host_, stats_.retries, op},
      [&]() -> sim::Task<Result<std::uint64_t>> {
        // Unacked put: VI in-order delivery guarantees the commit RPC below
        // arrives at the server after the written bytes did.
        ++puts_issued_;
        auto put = co_await host_.nic().gm_put(
            dafs_.server_node(), cap->base + soff, net::Buffer::copy_of(data),
            *cap, /*wait_ack=*/false, op);
        if (!put.ok()) co_return put;
        auto res = co_await dafs_.put_commit(fh, sfbn, soff, data.size(),
                                             cksum, flags, op);
        if (res.ok()) {
          ++put_commits_;
          co_return res.value().version;
        }
        const Errc e = res.code();
        if (e != Errc::timed_out) ++put_rejects_;
        if (e == Errc::revoked || e == Errc::not_supported) {
          // Reference dead server-side: drop every covered reference so the
          // caller (and future writes) go straight to RPC until refreshed.
          // Final, unlike a revoked put: no usable reference is left.
          for (std::uint64_t i = 0; i < count; ++i) {
            if (auto* h = cache_.peek(cache::BlockKey{fh, first + i});
                h && h->ref) {
              cache_.clear_ref(*h);
            }
          }
          co_return Errc::not_found;
        }
        // io_error = the put was lost or overtaken at the NIC (e.g. a revoke
        // fault between placement and commit); timed_out = commit gave up
        // on retransmits. Both: replay put + commit.
        co_return res.status();
      });
}

sim::Task<Result<Bytes>> OdafsClient::rpc_write(
    std::uint64_t fh, Bytes off, std::span<const std::byte> data,
    obs::OpId op) {
  co_return co_await recover::bounded(
      cfg_.max_fetch_attempts, recover::Site{host_, stats_.retries, op},
      [&] { return dafs_.write_inline(fh, off, data, op); });
}

sim::Task<Result<Bytes>> OdafsClient::pwrite_wb(std::uint64_t fh, Bytes off,
                                                mem::Vaddr user_va, Bytes len,
                                                obs::OpId op) {
  co_await host_.cpu_consume(host_.costs().cpu_syscall, op, "io/syscall");
  std::vector<std::byte> data(len);
  if (!host_.user_as().read(user_va, data).ok()) {
    co_return Errc::access_fault;
  }
  const Bytes cbs = cache_.block_size();
  const std::size_t high_water = writeback_high_water();

  Bytes done = 0;
  while (done < len) {
    const Bytes pos = off + done;
    const std::uint64_t idx = pos / cbs;
    const Bytes boff = pos % cbs;
    const Bytes chunk = std::min<Bytes>(len - done, cbs - boff);

    // Dirty-pool pressure: flush the oldest dirty block first so fills and
    // fresh writes always find stealable blocks.
    while (cache_.dirty_blocks() >= high_water && !wb_fifo_.empty()) {
      auto st = co_await flush_oldest(op);
      if (!st.ok()) co_return st;
    }

    const cache::BlockKey key{fh, idx};
    auto* h = cache_.find(key);
    if (!(h && h->has_data())) {
      const Bytes* known = sizes_.find(fh);
      const Bytes file_size = known == nullptr ? Bytes{0} : *known;
      if (chunk < cbs && idx * cbs < file_size) {
        // Partial write into a block with existing bytes: read-modify-write
        // through the normal fill path.
        auto fb = co_await fetch_block(fh, idx, op);
        if (!fb.ok()) co_return fb.status();
        h = fb.value();
      } else {
        // Full overwrite, or the block lies at/beyond EOF: no fetch. Zero
        // the leading gap so stale slab bytes are never exposed.
        h = &cache_.ensure(key);
        const mem::Vaddr va = cache_.attach_data(*h, 0);
        if (boff > 0) {
          const std::vector<std::byte> zero(boff);
          ORDMA_CHECK(host_.user_as().write(va, zero).ok());
          h->valid = boff;
        }
      }
    }
    // Byte write, valid extension and dirty marking happen with no await
    // between them, so eviction can never steal the block part-way.
    ORDMA_CHECK(host_.user_as()
                    .write(cache_.block_va(*h) + boff,
                           std::span<const std::byte>(data.data() + done,
                                                      chunk))
                    .ok());
    h->valid = std::max<Bytes>(h->valid, boff + chunk);
    const bool newly_dirty = !h->dirty();
    cache_.mark_dirty(*h, boff, boff + chunk);
    if (newly_dirty) wb_fifo_.push_back(key);
    co_await host_.copy(chunk, op);  // user buffer → cache block
    done += chunk;
  }
  auto& size = *sizes_.try_emplace(fh).first;
  size = std::max<Bytes>(size, off + len);
  co_return len;
}

sim::Task<Status> OdafsClient::flush_block(cache::BlockKey key, obs::OpId op,
                                           bool drop_after) {
  auto* h = cache_.peek(key);
  if (!h || !h->dirty()) co_return Status::Ok();
  const SimTime flush_t0 = host_.engine().now();
  const Bytes lo = h->dirty_lo;
  const Bytes hi = h->dirty_hi;
  std::vector<std::byte> data(hi - lo);
  ORDMA_CHECK(host_.user_as().read(cache_.block_va(*h) + lo, data).ok());
  // Clean before the first await: writes landing mid-flush re-dirty the
  // block and re-queue it, so their bytes are never silently lost.
  cache_.clear_dirty(*h);
  ++wb_flushes_;
  host_.flight().record(host_.engine().now().ns, obs::flight::Ev::wb_flush,
                        key.file, key.idx,
                        static_cast<std::uint32_t>(hi - lo));

  const Bytes pos = key.idx * cache_.block_size() + lo;
  std::uint64_t version = 0;
  Status st = Status::Ok();
  auto v = co_await put_piece(key.file, pos, data, dafs::kPutFlagWriteback, op);
  if (v.ok()) {
    version = v.value();
  } else {
    // Same recovery as write-through: every exhausted put failure replays
    // inline over RPC (an uncommitted put is never applied server-side).
    ++put_fallbacks_;
    auto n = co_await rpc_write(key.file, pos, data, op);
    if (!n.ok()) st = n.status();
  }

  h = cache_.peek(key);  // awaits above: re-establish the header
  if (!st.ok()) {
    // Total failure: restore the dirty range (unless a concurrent write
    // already re-dirtied, which widens over ours anyway) and re-queue.
    if (h && h->has_data()) {
      const bool newly_dirty = !h->dirty();
      cache_.mark_dirty(*h, lo, hi);
      if (newly_dirty) wb_fifo_.push_back(key);
    }
    co_return st;
  }
  if (h != nullptr) {
    if (version != 0) {
      h->version = std::max(h->version, version);
      h->ref_version = std::max(h->ref_version, version);
    }
    // Invalidation-triggered flush: drop the local copy so the next read
    // refetches the merge of our bytes with the conflicting writer's.
    if (drop_after && h->has_data() && !h->dirty() && h->pin == 0) {
      cache_.drop_data(*h);
      ++inval_drops_;
    }
  }
  if (policy_.enabled()) {
    // The deferred bill of the write-back arm, fed to its cost estimate.
    policy_.observe_flush((host_.engine().now() - flush_t0).to_us());
  }
  co_return Status::Ok();
}

sim::Task<Status> OdafsClient::flush_oldest(obs::OpId op) {
  while (!wb_fifo_.empty()) {
    const cache::BlockKey key = wb_fifo_.front();
    wb_fifo_.pop_front();
    auto* h = cache_.peek(key);
    if (!h || !h->dirty()) continue;  // flushed or invalidated meanwhile
    co_return co_await flush_block(key, op, /*drop_after=*/false);
  }
  co_return Status::Ok();
}

sim::Task<Status> OdafsClient::sync() {
  co_return co_await run_op("op/sync",
                            [this](obs::OpId op) { return sync_op(op); });
}

sim::Task<Status> OdafsClient::sync_op(obs::OpId op) {
  // Drain a snapshot: failed flushes re-queue themselves, and draining the
  // live FIFO would livelock on a permanently failing block.
  const std::vector<cache::BlockKey> snap(wb_fifo_.begin(), wb_fifo_.end());
  wb_fifo_.clear();
  Status last = Status::Ok();
  for (const auto& key : snap) {
    auto* h = cache_.peek(key);
    if (!h || !h->dirty()) continue;
    auto st = co_await flush_block(key, op, /*drop_after=*/false);
    if (!st.ok()) last = st;
  }
  co_return last;
}

void OdafsClient::handle_invalidate(std::uint64_t ino, std::uint64_t fbn,
                                    std::uint64_t version) {
  if (server_block_ == 0 || cache_.block_size() > server_block_) return;
  const Bytes cbs = cache_.block_size();
  const Bytes sbs = server_block_;
  const std::uint64_t first = fbn * sbs / cbs;
  const std::uint64_t count = std::max<Bytes>(1, sbs / cbs);
  for (std::uint64_t i = 0; i < count; ++i) {
    const cache::BlockKey key{ino, first + i};  // fh == ino in this protocol
    if (auto* s = inflight_.find(key)) {
      // A racing fill: poison it — never drop its slot, the in-flight RDMA
      // gather would land in freed (possibly reassigned) memory.
      s->value->poisoned = true;
      continue;
    }
    auto* h = cache_.peek(key);
    if (h == nullptr) continue;
    if (h->dirty()) {
      // Conflicting writer committed while we hold dirty bytes: push ours
      // out, then drop the copy so the next read sees the merged result.
      host_.engine().spawn(
          [](OdafsClient& self, cache::BlockKey k) -> sim::Task<void> {
            (void)co_await self.flush_block(k, 0, /*drop_after=*/true);
          }(*this, key));
      continue;
    }
    if (h->pin > 0) continue;  // mid-use (fill/flush): conservative skip
    if (h->has_data() && h->version < version) {
      cache_.drop_data(*h);
      ++inval_drops_;
    }
  }
}

sim::Task<Result<fs::Attr>> OdafsClient::getattr_op(std::uint64_t fh,
                                                    obs::OpId op) {
  // Attribute extension (§4.2.2 motivates "attribute accesses"): read the
  // file's marshalled attribute record from server memory by ORDMA; any
  // fault (revoked region) or stale record (reused slot) falls back to RPC.
  if (cfg_.use_ordma) {
    if (auto it = attr_refs_.find(fh); it != attr_refs_.end()) {
      auto res = co_await dafs_.rdma_read(
          it->second.va, fs::ServerFs::kAttrRecordSize, it->second.cap, op);
      if (res.ok()) {
        auto attr = fs::ServerFs::decode_attr_record(res.value().view(), fh);
        if (attr.ok()) {
          ++attr_ordma_;
          signals_.exception_rate.update(0.0);
          co_return attr.value();
        }
      }
      signals_.exception_rate.update(1.0);
      obs::note_op_exception(op);
      attr_refs_.erase(fh);  // stale: drop and fall through to RPC
    }
  }
  co_return co_await dafs_.getattr_op(fh, op);
}

sim::Task<Result<core::OpenResult>> OdafsClient::create(
    const std::string& path) {
  auto res = co_await dafs_.create(path);
  if (res.ok()) {
    *sizes_.try_emplace(res.value().fh).first = 0;
    server_block_ = dafs_.server_block_size();
  }
  co_return res;
}

sim::Task<Status> OdafsClient::unlink(const std::string& path) {
  co_return co_await dafs_.unlink(path);
}

}  // namespace ordma::nas::odafs
