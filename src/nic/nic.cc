#include "nic/nic.h"

#include <algorithm>

#include "common/log.h"
#include "rpc/xdr.h"

namespace ordma::nic {

namespace {
constexpr std::uint32_t kMaxU32 = 0xffffffffu;
}

// Doorbell writes cross the PCI bus; a faulty NIC can stall them (fault
// plan). Charged as extra host-visible latency at ring time.
sim::Task<void> Nic::ring_doorbell(obs::OpId trace_op) {
  host_.flight().record(eng_.now().ns, obs::flight::Ev::nic_doorbell,
                        trace_op);
  co_await host_.cpu_consume(cm_.nic_doorbell, trace_op, "nic/doorbell");
  if (faults_) {
    const Duration stall = faults_->doorbell_stall();
    if (stall.ns > 0) co_await eng_.delay(stall);
  }
}

Nic::Nic(host::Host& host, net::Fabric& fabric, NicConfig cfg,
         crypto::SipKey cap_key)
    : host_(host),
      fabric_(fabric),
      cfg_(cfg),
      cm_(host.costs()),
      eng_(host.engine()),
      node_id_(kMaxU32),
      fw_(eng_, 1, host.name() + ".nic.fw"),
      dma_(eng_, 1, host.name() + ".nic.dma"),
      rx_queue_(eng_),
      tlb_(cfg.tlb_entries),
      authority_(cap_key) {
  node_id_ = fabric_.add_node(host.name(),
                              [this](net::Packet p) { rx_queue_.send(std::move(p)); });
  host_.attach_nic(this);
  eng_.spawn(rx_loop());
}

sim::Task<void> Nic::dma_transfer(Bytes n, obs::OpId trace_op) {
  const SimTime q0 = eng_.now();
  co_await dma_.acquire();
  sim::Resource::ReleaseGuard guard(dma_);
  const SimTime b = eng_.now();
  if (b.ns != q0.ns) obs::span(dma_.queue_track(), trace_op, "queue/wait", q0, b);
  host_.flight().record(b.ns, obs::flight::Ev::nic_dma, n, trace_op);
  co_await eng_.delay(cm_.nic_dma_setup + cm_.nic_dma_bw.time_for(n));
  obs::span(dma_.trace_track(), trace_op, "nic/dma", b, eng_.now());
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

sim::Task<void> Nic::send_frames(net::NodeId dst, net::Buffer payload,
                                 net::CtrlAny ctrl, obs::OpId trace_op) {
  const bool gm = ctrl.holds<GmCtrl>();
  const Bytes mtu = gm ? cm_.gm_mtu : cm_.eth_mtu;
  const std::uint64_t msg_id = next_msg_id_++;
  const Bytes total = payload.size();
  const std::uint32_t nfrags =
      total == 0 ? 1 : static_cast<std::uint32_t>((total + mtu - 1) / mtu);

  for (std::uint32_t i = 0; i < nfrags; ++i) {
    const Bytes off = static_cast<Bytes>(i) * mtu;
    const Bytes chunk = std::min<Bytes>(mtu, total - off);
    co_await fw_.consume(cm_.nic_tx_frag, trace_op, "nic/tx_frag");
    if (chunk > 0) co_await dma_transfer(chunk, trace_op);

    net::Packet p;
    p.src = node_id_;
    p.dst = dst;
    p.proto = gm ? net::Proto::gm : net::Proto::ethernet;
    p.header_bytes = gm ? cm_.gm_header : cm_.eth_header;
    p.payload = total == 0 ? net::Buffer() : payload.slice(off, chunk);
    p.msg_id = msg_id;
    p.frag_index = i;
    p.frag_count = nfrags;
    p.msg_total = total;
    p.ctrl = ctrl;
    p.trace_op = trace_op;
    fabric_.send(std::move(p));
  }
}

void Nic::send_ctrl_packet(net::NodeId dst, GmCtrl ctrl, Bytes extra_bytes,
                           obs::OpId trace_op) {
  net::Packet p;
  p.src = node_id_;
  p.dst = dst;
  p.proto = net::Proto::gm;
  p.header_bytes = cm_.gm_header + extra_bytes;
  p.msg_id = next_msg_id_++;
  p.msg_total = 0;
  p.ctrl = ctrl;
  p.trace_op = trace_op;
  fabric_.send(std::move(p));
}

sim::Channel<Nic::GmMessage>& Nic::open_port(std::uint32_t port) {
  auto& slot = *ports_.try_emplace(port).first;
  if (!slot) slot = std::make_unique<sim::Channel<GmMessage>>(eng_);
  return *slot;
}

sim::Task<void> Nic::gm_send(net::NodeId dst, std::uint32_t port,
                             std::uint32_t user_tag, net::Buffer data,
                             obs::OpId trace_op) {
  co_await ring_doorbell(trace_op);
  obs::flow(fw_.trace_track(), trace_op, "gm_send", eng_.now());
  GmCtrl ctrl;
  ctrl.op = GmOp::data;
  ctrl.port = port;
  ctrl.user_tag = user_tag;
  co_await send_frames(dst, std::move(data), ctrl, trace_op);
}

sim::Task<Result<net::Buffer>> Nic::gm_get(net::NodeId dst, mem::Vaddr va,
                                           Bytes len,
                                           const crypto::Capability& cap,
                                           obs::OpId trace_op) {
  co_await ring_doorbell(trace_op);
  obs::flow(fw_.trace_track(), trace_op, "gm_get", eng_.now());
  co_await fw_.consume(cm_.nic_tx_frag, trace_op, "nic/tx_frag");

  const std::uint64_t op_id = next_op_id_++;
  auto op = std::make_unique<PendingOp>(eng_);
  auto* op_ptr = op.get();
  pending_.try_emplace(op_id, std::move(op));

  GmCtrl ctrl;
  ctrl.op = GmOp::get_req;
  ctrl.op_id = op_id;
  ctrl.remote_va = va;
  ctrl.rdma_len = len;
  ctrl.cap = cap;
  // capability on the wire
  send_ctrl_packet(dst, ctrl, /*extra_bytes=*/40, trace_op);
  co_return co_await await_op(op_id, *op_ptr);
}

sim::Task<Result<net::Buffer>> Nic::await_op(std::uint64_t op_id,
                                             PendingOp& op) {
  auto got = co_await op.done.wait_for(cfg_.op_timeout);
  pending_.erase(op_id);
  if (got) co_return std::move(*got);
  ++ordma_timeouts_;  // lost request/reply; the caller falls back
  host_.flight().record(eng_.now().ns, obs::flight::Ev::nic_ordma_timeout,
                        op_id);
  co_return Errc::timed_out;
}

sim::Task<Status> Nic::gm_put(net::NodeId dst, mem::Vaddr va,
                              net::Buffer data,
                              const crypto::Capability& cap,
                              bool wait_ack, obs::OpId trace_op) {
  co_await ring_doorbell(trace_op);
  obs::flow(fw_.trace_track(), trace_op, "gm_put", eng_.now());

  const std::uint64_t op_id = next_op_id_++;
  GmCtrl ctrl;
  ctrl.op = GmOp::put_req;
  ctrl.op_id = op_id;
  ctrl.remote_va = va;
  ctrl.rdma_len = data.size();
  ctrl.cap = cap;

  if (!wait_ack) {
    co_await send_frames(dst, std::move(data), ctrl, trace_op);
    co_return Status::Ok();  // the ack, when it arrives, is ignored
  }

  auto op = std::make_unique<PendingOp>(eng_);
  auto* op_ptr = op.get();
  pending_.try_emplace(op_id, std::move(op));
  co_await send_frames(dst, std::move(data), ctrl, trace_op);
  co_return (co_await await_op(op_id, *op_ptr)).status();
}

// ---------------------------------------------------------------------------
// Receive demux
// ---------------------------------------------------------------------------

sim::Task<void> Nic::rx_loop() {
  for (;;) {
    net::Packet p = co_await rx_queue_.recv();
    co_await fw_.consume(cm_.nic_rx_frag, p.trace_op, "nic/rx_frag");
    if (p.proto == net::Proto::ethernet) {
      co_await handle_eth(std::move(p));
      continue;
    }
    const auto ctrl = p.ctrl.get<GmCtrl>();
    switch (ctrl.op) {
      case GmOp::data:
      case GmOp::put_req:
        co_await handle_gm_message(std::move(p));
        break;
      case GmOp::get_req:
        // Service asynchronously; the fw resource serialises actual work.
        eng_.spawn(service_get(std::move(p)));
        break;
      case GmOp::get_reply:
        co_await handle_get_reply(std::move(p));
        break;
      case GmOp::put_ack:
        handle_put_ack(std::move(p));
        break;
    }
  }
}

net::Buffer Nic::take_message(Reassembly& r) {
  if (r.copied()) ++reassembly_copies_;
  return r.take();
}

sim::Task<void> Nic::handle_gm_message(net::Packet p) {
  const RxKey key{p.src, p.msg_id};
  Reassembly* r = &gm_rx_.try_emplace(key).first->value;
  if (!r->admit(p)) co_return;  // duplicated fragment: already placed
  if (!p.payload.empty()) {
    // Each fragment is DMA'd towards host memory as it arrives, so the
    // bulk transfer overlaps with reception of later fragments.
    co_await dma_transfer(p.payload.size(), p.trace_op);
    r = &gm_rx_.find(key)->value;  // the slot may have moved meanwhile
    r->place(static_cast<Bytes>(p.frag_index) * cm_.gm_mtu, p.payload);
  }
  if (!r->complete()) co_return;
  net::Buffer data = take_message(*r);
  gm_rx_.erase(key);

  const auto ctrl = p.ctrl.get<GmCtrl>();
  if (ctrl.op == GmOp::put_req) {
    co_await apply_put(p, std::move(data));
    co_return;
  }
  obs::flow(fw_.trace_track(), p.trace_op, "gm_deliver", eng_.now());
  if (auto* port = ports_.find(ctrl.port)) {
    (*port)->send(GmMessage{p.src, ctrl.user_tag, std::move(data),
                            p.trace_op});
  } else {
    ORDMA_LOG_ERROR("nic", "%s: GM message to closed port %u dropped",
                    host_.name().c_str(), ctrl.port);
  }
}

// ---------------------------------------------------------------------------
// ORDMA target paths
// ---------------------------------------------------------------------------

void Nic::tlb_insert_pinned(const Segment& seg, mem::Vpn nic_vpn,
                            mem::Pfn pfn) {
  seg.as->pin(mem::page_of(seg.host_va) + (nic_vpn - mem::page_of(seg.nic_va)));
  NicTlb::Entry e;
  e.nic_vpn = nic_vpn;
  e.pfn = pfn;
  e.seg_id = seg.id;
  e.as = seg.as;
  e.host_vpn =
      mem::page_of(seg.host_va) + (nic_vpn - mem::page_of(seg.nic_va));
  if (auto evicted = tlb_.insert(e)) unpin_evicted(*evicted);
}

void Nic::unpin_evicted(const NicTlb::Entry& e) { e.as->unpin(e.host_vpn); }

sim::Task<Result<Translation>> Nic::tlb_load(Segment seg, mem::Vpn nic_vpn,
                                             obs::OpId trace_op) {
  tlb_.count_miss();
  const mem::Vpn host_vpn =
      mem::page_of(seg.host_va) + (nic_vpn - mem::page_of(seg.nic_va));
  const auto* pte = seg.as->lookup(host_vpn);
  if (!pte || !pte->present) co_return Errc::access_fault;
  if (pte->locked) co_return Errc::access_fault;

  // Miss path (§4.1): the NIC interrupts the host, which loads the TPT
  // entry into the TLB by programmed I/O. The full penalty (interrupt,
  // scheduling, PIO) is the paper's measured ~9 ms; only the CPU-visible
  // part is charged to the host CPU.
  host_.post_interrupt([this]() -> sim::Task<void> {
    co_await host_.cpu_consume(cm_.cpu_schedule);
  });
  const SimTime miss_begin = eng_.now();
  host_.flight().record(miss_begin.ns, obs::flight::Ev::nic_tlb_miss,
                        nic_vpn);
  co_await eng_.delay(cm_.nic_tlb_miss);
  obs::span(fw_.trace_track(), trace_op, "nic/tlb_miss", miss_begin,
            eng_.now());

  // Revalidate after the delay: the segment may have been revoked while we
  // waited (the race the exception mechanism exists for), or a concurrent
  // miss for the same page may have loaded the entry already.
  if (NicTlb::Entry* raced = tlb_.lookup(nic_vpn)) {
    co_return raced->translation();
  }
  const Segment* fresh = tpt_.segment_of_page(nic_vpn);
  if (!fresh || fresh->id != seg.id) co_return Errc::access_fault;
  const auto* pte2 = fresh->as->lookup(host_vpn);
  if (!pte2 || !pte2->present || pte2->locked) co_return Errc::access_fault;

  tlb_insert_pinned(*fresh, nic_vpn, pte2->pfn);
  NicTlb::Entry* e = tlb_.lookup(nic_vpn);
  ORDMA_CHECK(e != nullptr);
  co_return e->translation();
}

sim::Task<Result<Nic::OrdmaTarget>> Nic::resolve_ordma(
    mem::Vaddr va, Bytes len, const crypto::Capability& cap, bool write,
    obs::OpId trace_op) {
  if (len == 0) co_return Errc::invalid_argument;

  // Locate the segment named by the capability. Work on a copy: table
  // entries are looked up afresh after every await (a revoke may erase
  // them meanwhile), and the checks below judge the segment as it was.
  const Segment* found = tpt_.find_segment(cap.segment_id);
  if (!found) co_return Errc::access_fault;
  const Segment seg = *found;

  // Injected NIC misbehaviour: a spurious revocation fails the op exactly
  // like a genuine one (the initiator falls back to RPC); a spurious TPT/TLB
  // shootdown drops this segment's translations so the op replays the miss
  // path — both recoverable NIC-to-NIC exceptions of §4.1.
  if (faults_) {
    if (faults_->spurious_cap_revoke()) co_return Errc::revoked;
    // Revoke-during-put: fired only on the write path, so plans can keep
    // puts under fire while reads stay clean. The put's bytes are fully
    // reassembled but never placed — an all-or-nothing rollback the
    // initiator recovers from by replaying the put (or falling back to
    // RPC write).
    if (write && faults_->spurious_put_revoke()) co_return Errc::revoked;
    if (faults_->spurious_tlb_invalidate()) {
      for (const auto& e : tlb_.invalidate_segment(seg)) unpin_evicted(e);
    }
  }

  // Verify the capability (MAC + generation) — firmware cost.
  if (cm_.capabilities_enabled) {
    co_await fw_.consume(cm_.nic_cap_verify, trace_op, "nic/cap_verify");
    if (!authority_.verify(cap, seg.generation)) co_return Errc::revoked;
    if (!crypto::allows(cap.perm, write ? crypto::SegPerm::write
                                        : crypto::SegPerm::read)) {
      co_return Errc::access_fault;
    }
  }

  // Range check against the segment.
  if (va < seg.nic_va || va + len > seg.nic_va + seg.len) {
    co_return Errc::access_fault;
  }

  std::vector<PageRun> runs;
  Bytes done = 0;
  while (done < len) {
    const mem::Vaddr cur = va + done;
    const mem::Vpn nic_vpn = mem::page_of(cur);
    const std::uint64_t off = mem::page_offset(cur);
    const Bytes chunk = std::min<Bytes>(len - done, mem::kPageSize - off);

    Translation t;
    if (const NicTlb::Entry* hit = tlb_.lookup(nic_vpn)) {
      t = hit->translation();
      co_await fw_.consume(cm_.nic_tlb_hit, trace_op, "nic/tlb_hit");
    } else {
      // Confirm the page still belongs to this segment, then take the miss.
      const Segment* owner = tpt_.segment_of_page(nic_vpn);
      if (!owner || owner->id != seg.id) co_return Errc::access_fault;
      auto loaded = co_await tlb_load(*owner, nic_vpn, trace_op);
      if (!loaded.ok()) co_return loaded.status();
      t = loaded.value();
    }

    // Write permission is also enforced at the host page level.
    if (write) {
      const auto* pte = t.as->lookup(t.host_vpn);
      if (!pte || !pte->writable) co_return Errc::access_fault;
    }
    runs.push_back(PageRun{t.pfn, off, chunk});
    done += chunk;
  }

  // The segment may have been revoked while this resolve waited (for the
  // firmware or on a TLB miss); that is a fault too.
  const Segment* live = tpt_.find_segment(seg.id);
  if (!live) co_return Errc::access_fault;
  co_return OrdmaTarget{live->as, std::move(runs)};
}

void Nic::reply_fault(const net::Packet& req, Errc fault) {
  const auto ctrl = req.ctrl.get<GmCtrl>();
  ++ordma_faults_;
  host_.flight().record(eng_.now().ns, obs::flight::Ev::nic_ordma_fault,
                        ctrl.op_id, static_cast<std::uint64_t>(fault));
  GmCtrl reply;
  reply.op = ctrl.op == GmOp::get_req ? GmOp::get_reply : GmOp::put_ack;
  reply.op_id = ctrl.op_id;
  reply.fault = fault;
  send_ctrl_packet(req.src, reply, 0, req.trace_op);
}

sim::Task<void> Nic::service_get(net::Packet p) {
  const auto ctrl = p.ctrl.get<GmCtrl>();
  co_await fw_.consume(cm_.nic_get_service, p.trace_op, "nic/get_service");
  auto target = co_await resolve_ordma(ctrl.remote_va, ctrl.rdma_len,
                                       ctrl.cap, /*write=*/false, p.trace_op);
  if (!target.ok()) {
    reply_fault(p, target.code());
    co_return;
  }

  ++ordma_served_;
  // Gather the real bytes out of host physical memory.
  net::Buffer data = net::Buffer::alloc(ctrl.rdma_len);
  const auto w = data.mutable_view();
  Bytes off = 0;
  auto& phys = target.value().as->phys();
  for (const auto& run : target.value().runs) {
    phys.read(mem::frame_base(run.pfn) + run.offset,
              w.subspan(off, run.chunk));
    off += run.chunk;
  }
  GmCtrl reply;
  reply.op = GmOp::get_reply;
  reply.op_id = ctrl.op_id;
  co_await send_frames(p.src, std::move(data), reply, p.trace_op);
}

sim::Task<void> Nic::apply_put(const net::Packet& p, net::Buffer data) {
  const auto ctrl = p.ctrl.get<GmCtrl>();
  // A duplicated frame arriving after the message's tracker was erased
  // would reassemble the whole message again (single-fragment puts
  // trivially so) and re-apply stale bytes over whatever landed since.
  // Drop replays of recently completed puts instead; the original's ack
  // already answers the initiator.
  const RxKey put_key{p.src, ctrl.op_id};
  if (put_done_.find(put_key) != nullptr) {
    ++put_dups_dropped_;
    co_return;
  }
  put_done_.try_emplace(put_key);
  put_done_order_.push_back(put_key);
  while (put_done_order_.size() > kPutDedupCap) {
    put_done_.erase(put_done_order_.front());
    put_done_order_.pop_front();
  }

  co_await fw_.consume(cm_.nic_put_service, p.trace_op, "nic/put_service");
  auto target = co_await resolve_ordma(ctrl.remote_va, data.size(), ctrl.cap,
                                       /*write=*/true, p.trace_op);
  if (!target.ok()) {
    reply_fault(p, target.code());
    co_return;
  }
  ++ordma_served_;
  ++puts_served_;
  const auto dv = data.view();
  Bytes off = 0;
  auto& phys = target.value().as->phys();
  for (const auto& run : target.value().runs) {
    phys.write(mem::frame_base(run.pfn) + run.offset,
               dv.subspan(off, run.chunk));
    off += run.chunk;
  }
  // Remember what landed (checksummed during placement — no host CPU):
  // the server's put-commit handler verifies a client's claim against this
  // record instead of re-reading the data.
  *last_put_.try_emplace(ctrl.cap.segment_id).first =
      PutRecord{p.src, ctrl.op_id, ctrl.remote_va, data.size(),
                rpc::checksum32(dv)};
  GmCtrl ack;
  ack.op = GmOp::put_ack;
  ack.op_id = ctrl.op_id;
  send_ctrl_packet(p.src, ack, 0, p.trace_op);
}

sim::Task<void> Nic::handle_get_reply(net::Packet p) {
  const auto ctrl = p.ctrl.get<GmCtrl>();
  auto* slot = pending_.find(ctrl.op_id);
  if (slot == nullptr) co_return;  // initiator gave up
  if ((*slot)->done.is_set()) co_return;  // duplicate after completion

  if (ctrl.fault != Errc::ok) {
    (*slot)->done.set(Result<net::Buffer>(ctrl.fault));
    co_return;
  }
  if (!(*slot)->reply.admit(p)) co_return;  // duplicated fragment
  if (!p.payload.empty()) {
    // Fragments are DMA'd into the initiator's buffer as they arrive.
    co_await dma_transfer(p.payload.size(), p.trace_op);
    // The initiator may have timed out and erased the op while we DMA'd.
    slot = pending_.find(ctrl.op_id);
    if (slot == nullptr) co_return;
    (*slot)->reply.place(static_cast<Bytes>(p.frag_index) * cm_.gm_mtu,
                         p.payload);
  }
  PendingOp& op = **slot;
  if (op.reply.complete()) {
    op.done.set(Result<net::Buffer>(take_message(op.reply)));
  }
}

void Nic::handle_put_ack(net::Packet p) {
  const auto ctrl = p.ctrl.get<GmCtrl>();
  auto* slot = pending_.find(ctrl.op_id);
  if (slot == nullptr) return;
  PendingOp& op = **slot;
  if (op.done.is_set()) return;  // duplicate ack
  if (ctrl.fault != Errc::ok) {
    op.done.set(Result<net::Buffer>(ctrl.fault));
  } else {
    op.done.set(Result<net::Buffer>(net::Buffer()));
  }
}

// ---------------------------------------------------------------------------
// Export / revoke
// ---------------------------------------------------------------------------

Result<crypto::Capability> Nic::export_segment(mem::AddressSpace& as,
                                               mem::Vaddr host_va, Bytes len,
                                               crypto::SegPerm perm,
                                               bool pin_now) {
  if (mem::page_offset(host_va) != 0 || len == 0) {
    return Errc::invalid_argument;
  }
  const Bytes aligned = (len + mem::kPageSize - 1) & ~(mem::kPageSize - 1);

  Segment seg;
  seg.id = next_seg_id_++;
  seg.as = &as;
  seg.host_va = host_va;
  seg.nic_va = next_nic_va_;
  seg.len = aligned;
  seg.perm = perm;
  seg.generation = 1;
  seg.pinned_on_export = pin_now;
  next_nic_va_ += aligned;

  // Validate pages exist before installing.
  const auto pages = aligned / mem::kPageSize;
  for (std::uint64_t i = 0; i < pages; ++i) {
    const auto* pte = as.lookup(mem::page_of(host_va) + i);
    if (!pte || !pte->present) return Errc::access_fault;
  }

  tpt_.install(seg);

  if (pin_now || cfg_.preload_tlb) {
    for (std::uint64_t i = 0; i < pages; ++i) {
      const mem::Vpn nic_vpn = mem::page_of(seg.nic_va) + i;
      if (tlb_.lookup(nic_vpn)) continue;
      const auto* pte = as.lookup(mem::page_of(host_va) + i);
      tlb_insert_pinned(seg, nic_vpn, pte->pfn);
    }
  }
  return authority_.mint(seg.id, seg.nic_va, seg.len, perm, seg.generation);
}

void Nic::revoke_segment(std::uint64_t seg_id) {
  host_.flight().record(eng_.now().ns, obs::flight::Ev::nic_cap_revoke,
                        seg_id);
  if (const Segment* seg = tpt_.find_segment(seg_id)) {
    for (const auto& e : tlb_.invalidate_segment(*seg)) unpin_evicted(e);
  }
  tpt_.remove(seg_id);
  // A put into a revoked segment can never commit: drop its record so a
  // commit racing the revocation is rejected instead of blessing bytes
  // whose backing memory is being reused.
  last_put_.erase(seg_id);
}

Result<crypto::Capability> Nic::capability_for(std::uint64_t seg_id) const {
  const Segment* seg = tpt_.find_segment(seg_id);
  if (!seg) return Errc::not_found;
  return authority_.mint(seg->id, seg->nic_va, seg->len, seg->perm,
                         seg->generation);
}

// ---------------------------------------------------------------------------
// Ethernet emulation & RDDP-RPC
// ---------------------------------------------------------------------------

sim::Task<void> Nic::eth_send(net::NodeId dst, net::Buffer dgram,
                              std::uint32_t rddp_xid, Bytes rddp_data_offset,
                              Bytes rddp_data_len, obs::OpId trace_op) {
  // A receiver delivers the bytes in front of the bulk as the datagram's
  // headers (handle_eth), so nothing may follow the bulk.
  ORDMA_CHECK_MSG(rddp_data_len == 0 ||
                      rddp_data_offset + rddp_data_len == dgram.size(),
                  "RDDP bulk must end the datagram");
  obs::flow(fw_.trace_track(), trace_op, "eth_send", eng_.now());
  co_await send_frames(dst, std::move(dgram),
                       EthCtrl{rddp_xid, rddp_data_offset, rddp_data_len},
                       trace_op);
}

void Nic::prepost(std::uint32_t xid, mem::AddressSpace& as, mem::Vaddr va,
                  Bytes len) {
  *preposts_.try_emplace(xid).first = PrepostEntry{&as, va, len};
}

void Nic::cancel_prepost(std::uint32_t xid) { preposts_.erase(xid); }

sim::Task<void> Nic::handle_eth(net::Packet p) {
  const auto ctrl = p.ctrl.get<EthCtrl>();
  const RxKey key{p.src, p.msg_id};
  // OpenMap slots move, so the entry is found again after every await.
  auto rx = [this, &key] { return &eth_rx_.find(key)->value; };
  auto [slot, first] = eth_rx_.try_emplace(key);
  EthReassembly* r = &slot->value;
  if (first) {
    r->rddp_xid = ctrl.rddp_xid;
    r->rddp_data_len = ctrl.rddp_data_len;
    // Header splitting is active iff a matching buffer was pre-posted.
    if (ctrl.rddp_xid != 0 && ctrl.rddp_data_len > 0) {
      const PrepostEntry* pp = preposts_.find(ctrl.rddp_xid);
      if (pp != nullptr && pp->len >= ctrl.rddp_data_len) {
        r->rddp_active = true;
      }
    }
  }
  if (!r->rx.admit(p)) co_return;  // duplicated fragment: already accounted

  if (!p.payload.empty()) {
    const Bytes frag_start = static_cast<Bytes>(p.frag_index) * cm_.eth_mtu;
    const Bytes frag_end = frag_start + p.payload.size();
    if (r->rddp_active) {
      // Split the fragment where the bulk data starts: the head (headers)
      // goes to the host stack, the body (data, which runs to the end of
      // the datagram — eth_send checks) to the pre-posted buffer.
      const Bytes data_start = ctrl.rddp_data_offset;
      if (data_start > frag_start) {
        const Bytes n = std::min(frag_end, data_start) - frag_start;
        co_await dma_transfer(n, p.trace_op);
        r = rx();
        r->rx.place(frag_start, p.payload.slice(0, n));
      }
      const Bytes body_start = std::max(frag_start, data_start);
      if (frag_end > body_start) {
        const Bytes n = frag_end - body_start;
        const net::Buffer body =
            p.payload.slice(body_start - frag_start, n);
        co_await dma_transfer(n, p.trace_op);  // placement into user buffer
        r = rx();
        const PrepostEntry* pp = preposts_.find(ctrl.rddp_xid);
        if (pp == nullptr) {
          // The caller cancelled the prepost mid-reassembly (gave up on
          // this attempt). Stop splitting: the datagram completes inline
          // with holes where already-placed bytes went, and the end-to-end
          // RPC checksum rejects it.
          r->rddp_active = false;
          r->rx.place(body_start, body);
        } else {
          const Status st =
              pp->as->write(pp->va + (body_start - data_start), body.view());
          ORDMA_CHECK_MSG(st.ok(), "pre-posted buffer not writable");
        }
      }
    } else {
      co_await dma_transfer(p.payload.size(), p.trace_op);
      r = rx();
      r->rx.place(frag_start, p.payload);
    }
  }
  if (!r->rx.complete()) co_return;

  EthDatagram d;
  d.src = p.src;
  d.trace_op = p.trace_op;
  d.rddp_xid = r->rddp_xid;
  d.rddp_placed = r->rddp_active;
  d.rddp_data_len = r->rddp_active ? r->rddp_data_len : 0;
  d.data = take_message(r->rx);
  if (r->rddp_active) {
    preposts_.erase(r->rddp_xid);
    // Deliver only the header bytes (the payload was placed directly).
    d.data = d.data.slice(0, p.msg_total - r->rddp_data_len);
  }
  eth_rx_.erase(key);
  eth_pending_.push_back(std::move(d));
  raise_eth_interrupt();
}

void Nic::raise_eth_interrupt() {
  if (eth_intr_pending_) return;  // coalesced into the pending interrupt
  eth_intr_pending_ = true;
  host_.post_interrupt([this]() -> sim::Task<void> {
    while (!eth_pending_.empty()) {
      EthDatagram d = std::move(eth_pending_.front());
      eth_pending_.pop_front();
      if (eth_sink_) co_await eth_sink_(std::move(d));
    }
    eth_intr_pending_ = false;
    if (!eth_pending_.empty()) raise_eth_interrupt();
  });
}

}  // namespace ordma::nic
