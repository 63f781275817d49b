// The simulated network interface controller — the analogue of the paper's
// LANai9.2 running modified GM-2.0 firmware.
//
// Exposes three personalities used by the NAS systems above it:
//  * GM messaging: tagged message sends to ports, plus RDMA get/put with the
//    paper's recoverable-exception extension (ORDMA, §4.1);
//  * segment export: a private 64-bit NIC-only address space backed by a
//    host-resident TPT and a bounded on-NIC TLB with pin-while-loaded
//    semantics (§4.1, §4.2.1);
//  * Ethernet emulation: datagram fragmentation for the UDP/IP path, with
//    RDDP-RPC support — pre-posted, tagged application buffers into which
//    the NIC header-splits RPC payloads (§3.2).
//
// All firmware work runs on a single fw resource (the 200 MHz LANai) and all
// host-memory transfers on a single DMA engine, so the NIC saturates
// realistically and independently of the host CPU.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/open_map.h"
#include "common/page_table.h"
#include "common/result.h"
#include "common/units.h"
#include "crypto/capability.h"
#include "host/host.h"
#include "mem/address_space.h"
#include "net/fabric.h"
#include "nic/reassembly.h"
#include "nic/tpt.h"
#include "nic/wire.h"
#include "sim/channel.h"
#include "sim/engine.h"
#include "sim/event.h"
#include "sim/resource.h"

namespace ordma::nic {

struct NicConfig {
  std::size_t tlb_entries = 8192;
  // Load TPT entries into the TLB at export time (the paper's benchmarks
  // "ensure that RDMA ... always hits in the NIC TLB"; the TLB ablation
  // bench turns this off).
  bool preload_tlb = true;
  // How long gm_get / gm_put(wait_ack) wait for completion before giving
  // up with Errc::timed_out. Zero waits forever (lossless-fabric default);
  // set it when a fault plan can lose fragments, so initiators recover.
  Duration op_timeout{0};
};

class Nic {
 public:
  Nic(host::Host& host, net::Fabric& fabric, NicConfig cfg,
      crypto::SipKey cap_key);
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  net::NodeId node_id() const { return node_id_; }
  host::Host& host() { return host_; }
  NicTlb& tlb() { return tlb_; }
  Tpt& tpt() { return tpt_; }

  // ---------------------------------------------------------------------
  // GM messaging
  // ---------------------------------------------------------------------
  struct GmMessage {
    net::NodeId src = net::kInvalidNode;
    std::uint32_t user_tag = 0;
    net::Buffer data;
    obs::OpId trace_op = 0;  // file-op trace context from the sender
  };

  // Open a receive port; messages sent to (this node, port) arrive on the
  // returned channel. Completion-pickup CPU cost is charged by the consumer
  // (poll vs block — the VI layer's business).
  sim::Channel<GmMessage>& open_port(std::uint32_t port);

  // Allocate a fresh (unused) port number for dynamic endpoints.
  std::uint32_t alloc_port() { return next_port_++; }

  // Send a message. Returns when the local NIC has pushed the last fragment
  // onto the wire (GM send-completion semantics). `trace_op` rides along as
  // trace context: packets, NIC work and the delivered GmMessage carry it.
  sim::Task<void> gm_send(net::NodeId dst, std::uint32_t port,
                          std::uint32_t user_tag, net::Buffer data,
                          obs::OpId trace_op = 0);

  // RDMA read/write against a remote exported segment. Completes when the
  // data (or ack) has fully arrived; a remote access fault completes with
  // Errc::access_fault (the recoverable NIC-to-NIC exception of §4.1).
  sim::Task<Result<net::Buffer>> gm_get(net::NodeId dst, mem::Vaddr va,
                                        Bytes len,
                                        const crypto::Capability& cap,
                                        obs::OpId trace_op = 0);
  // wait_ack=false returns once the last fragment is pushed (VI
  // reliable-delivery semantics: in-order delivery means a subsequent
  // message arrives after the written data); the ack is then ignored.
  sim::Task<Status> gm_put(net::NodeId dst, mem::Vaddr va, net::Buffer data,
                           const crypto::Capability& cap,
                           bool wait_ack = true, obs::OpId trace_op = 0);

  // ---------------------------------------------------------------------
  // Segment export (TPT / capabilities)
  // ---------------------------------------------------------------------
  // Export [host_va, host_va+len) of `as` into the NIC address space and
  // mint its capability. If pin_now, pages are pinned and TLB entries
  // loaded immediately (classic buffer registration); otherwise entries load
  // lazily on first access with the TLB-miss penalty (ODAFS cache exports).
  // host_va and len must be page-aligned.
  Result<crypto::Capability> export_segment(mem::AddressSpace& as,
                                            mem::Vaddr host_va, Bytes len,
                                            crypto::SegPerm perm,
                                            bool pin_now);

  // Revoke a segment: bump its generation (killing outstanding
  // capabilities), drop its TPT and TLB entries, unpin. Subsequent ORDMA
  // against it faults. Safe to call for unknown ids (idempotent).
  void revoke_segment(std::uint64_t seg_id);

  // Re-mint the current capability of a live segment.
  Result<crypto::Capability> capability_for(std::uint64_t seg_id) const;

  // Per-segment record of the most recent inbound put the NIC landed:
  // who wrote, where, how much, and the checksum of the landed bytes
  // (computed during placement — free of host CPU). A server commits an
  // optimistic client put by comparing this record against the client's
  // claim: O(1), no per-byte work on the authorize path. Erased when the
  // segment is revoked (a revoked put can never commit).
  struct PutRecord {
    net::NodeId src = net::kInvalidNode;
    std::uint64_t op_id = 0;
    mem::Vaddr va = 0;
    Bytes len = 0;
    std::uint32_t cksum = 0;
  };
  const PutRecord* last_put(std::uint64_t seg_id) const {
    return last_put_.find(seg_id);
  }

  // ---------------------------------------------------------------------
  // Ethernet emulation + RDDP-RPC pre-posting
  // ---------------------------------------------------------------------
  struct EthDatagram {
    net::NodeId src = net::kInvalidNode;
    net::Buffer data;        // full datagram, or header-only if RDDP-placed
    std::uint32_t rddp_xid = 0;
    bool rddp_placed = false;  // payload was deposited directly by the NIC
    Bytes rddp_data_len = 0;
    obs::OpId trace_op = 0;  // file-op trace context from the sender
  };
  using EthSink = std::function<sim::Task<void>(EthDatagram)>;

  // The host IP stack's input function; runs inside the (coalesced) receive
  // interrupt on the host CPU.
  void set_eth_sink(EthSink sink) { eth_sink_ = std::move(sink); }

  // Transmit a datagram; the NIC fragments at the Ethernet MTU. The
  // rddp_* fields describe where bulk data lies inside the datagram so a
  // pre-posting receiver NIC can split it out (zero for ordinary traffic);
  // the bulk must run to the end of the datagram.
  sim::Task<void> eth_send(net::NodeId dst, net::Buffer dgram,
                           std::uint32_t rddp_xid = 0,
                           Bytes rddp_data_offset = 0,
                           Bytes rddp_data_len = 0,
                           obs::OpId trace_op = 0);

  // Pre-post an application buffer tagged by RPC xid (§3.2). The NIC will
  // deposit the matching response's payload directly at (as, va). One-shot:
  // consumed by the match or explicitly cancelled.
  void prepost(std::uint32_t xid, mem::AddressSpace& as, mem::Vaddr va,
               Bytes len);
  void cancel_prepost(std::uint32_t xid);

  // --- fault injection ----------------------------------------------------
  // Optional deterministic misbehaviour source (doorbell stalls, spurious
  // TLB shootdowns, spurious capability revocation). Not owned.
  void set_fault_injector(fault::FaultInjector* f) { faults_ = f; }

  // --- observability ------------------------------------------------------
  std::uint64_t ordma_served() const { return ordma_served_; }
  std::uint64_t ordma_faults() const { return ordma_faults_; }
  std::uint64_t ordma_timeouts() const { return ordma_timeouts_; }
  std::uint64_t puts_served() const { return puts_served_; }
  // Replayed put frames discarded by the (src, op_id) dedup window — a
  // duplicated frame arriving after reassembly completed must not re-apply
  // stale bytes over newer data.
  std::uint64_t put_dups_dropped() const { return put_dups_dropped_; }
  // Inbound messages whose fragments could not be joined in place and were
  // copied into a fresh buffer (nic/reassembly.h): zero unless fragments
  // arrive out of order or damaged.
  std::uint64_t reassembly_copies() const { return reassembly_copies_; }
  Duration fw_busy() { return fw_.busy_time(); }
  // Packets delivered by the fabric and not yet pulled by the firmware
  // loop — the instantaneous receive queue depth a time-series sampler
  // wants for incast analysis.
  std::size_t rx_backlog() const { return rx_queue_.pending(); }

 private:
  struct PendingOp {
    explicit PendingOp(sim::Engine& eng) : done(eng) {}
    sim::Event<Result<net::Buffer>> done;  // get: data; put: empty buffer
    Reassembly reply;                      // get data as it arrives
  };

  struct EthReassembly {
    Reassembly rx;  // header (+payload unless RDDP-placed)
    bool rddp_active = false;
    std::uint32_t rddp_xid = 0;
    Bytes rddp_data_len = 0;
  };

  struct PrepostEntry {
    mem::AddressSpace* as = nullptr;
    mem::Vaddr va = 0;
    Bytes len = 0;
  };

  // Await a pending get/put completion for up to cfg_.op_timeout (0 = no
  // bound), then retire it; a timeout surfaces as Errc::timed_out.
  sim::Task<Result<net::Buffer>> await_op(std::uint64_t op_id,
                                          PendingOp& op);

  // --- firmware processes -------------------------------------------------
  sim::Task<void> rx_loop();
  // GM data messages and put data: one reassembly, then delivery to the
  // message's port or apply_put.
  sim::Task<void> handle_gm_message(net::Packet p);
  sim::Task<void> apply_put(const net::Packet& p, net::Buffer data);
  sim::Task<void> service_get(net::Packet p);
  sim::Task<void> handle_get_reply(net::Packet p);
  void handle_put_ack(net::Packet p);
  sim::Task<void> handle_eth(net::Packet p);

  // DMA a transfer of n bytes between host memory and the NIC.
  sim::Task<void> dma_transfer(Bytes n, obs::OpId trace_op = 0);

  // Charge the doorbell cost (plus any injected stall).
  sim::Task<void> ring_doorbell(obs::OpId trace_op);

  // Put one message on the wire as frames of its protocol's MTU, each
  // charged the firmware's transmit cost and its DMA out of host memory.
  // The control word rides on every frame; its type (GmCtrl or EthCtrl)
  // names the protocol.
  sim::Task<void> send_frames(net::NodeId dst, net::Buffer payload,
                              net::CtrlAny ctrl, obs::OpId trace_op);
  void send_ctrl_packet(net::NodeId dst, GmCtrl ctrl, Bytes extra_bytes = 0,
                        obs::OpId trace_op = 0);
  // Answer a get or put request the target refused with the recoverable
  // exception of §4.1.
  void reply_fault(const net::Packet& req, Errc fault);

  // Resolve all pages of [va, va+len) for an ORDMA access: the segment's
  // address space and, per page, (pfn, offset-in-page, chunk). Fails with
  // the first fault, including a segment revoked while the resolve waited.
  // Charges TLB costs on fw_.
  struct PageRun {
    mem::Pfn pfn;
    std::uint64_t offset;
    Bytes chunk;
  };
  struct OrdmaTarget {
    mem::AddressSpace* as = nullptr;
    std::vector<PageRun> runs;
  };
  sim::Task<Result<OrdmaTarget>> resolve_ordma(mem::Vaddr va, Bytes len,
                                               const crypto::Capability& cap,
                                               bool write,
                                               obs::OpId trace_op = 0);

  // Load a TPT translation into the TLB (miss path: host interrupt + PIO).
  // Takes and returns copies: the TPT and TLB slots may go during the
  // miss penalty's wait.
  sim::Task<Result<Translation>> tlb_load(Segment seg, mem::Vpn nic_vpn,
                                          obs::OpId trace_op = 0);
  void tlb_insert_pinned(const Segment& seg, mem::Vpn nic_vpn, mem::Pfn pfn);
  void unpin_evicted(const NicTlb::Entry& e);

  void raise_eth_interrupt();

  // A complete message out of its reassembly, counted if it was copied.
  net::Buffer take_message(Reassembly& r);

  host::Host& host_;
  net::Fabric& fabric_;
  NicConfig cfg_;
  const host::CostModel& cm_;
  sim::Engine& eng_;

  net::NodeId node_id_;
  sim::Resource fw_;   // LANai processor
  sim::Resource dma_;  // DMA engine on the PCI bus
  sim::Channel<net::Packet> rx_queue_;

  // GM
  PageTable<std::unique_ptr<sim::Channel<GmMessage>>> ports_;  // by port
  std::uint32_t next_port_ = 1024;
  PageTable<std::unique_ptr<PendingOp>> pending_;  // by op id
  std::uint64_t next_op_id_ = 1;
  std::uint64_t next_msg_id_ = 1;  // GM and Ethernet messages alike
  struct RxKey {
    net::NodeId src;
    std::uint64_t msg_id;
    bool operator==(const RxKey&) const = default;
  };
  struct RxKeyTraits {  // OpenMap: no frame comes from kInvalidNode
    static RxKey empty() { return {net::kInvalidNode, 0}; }
    static std::size_t hash(const RxKey& k) {
      return mix_hash((std::uint64_t(k.src) << 48) ^ k.msg_id);
    }
  };
  // Inbound GM messages and put data being reassembled.
  OpenMap<RxKey, Reassembly, RxKeyTraits> gm_rx_;

  // Export
  Tpt tpt_;
  NicTlb tlb_;
  crypto::CapabilityAuthority authority_;
  std::uint64_t next_seg_id_ = 1;
  mem::Vaddr next_nic_va_ = mem::kPageSize;

  // Ethernet
  EthSink eth_sink_;
  OpenMap<RxKey, EthReassembly, RxKeyTraits> eth_rx_;
  PageTable<PrepostEntry> preposts_;  // by RPC xid
  std::deque<EthDatagram> eth_pending_;
  bool eth_intr_pending_ = false;

  fault::FaultInjector* faults_ = nullptr;

  // ORDMA write-path state: last landed put per segment, and a bounded
  // FIFO of recently completed (src, op_id) puts so a duplicated frame
  // that resurrects an erased fragment tracker cannot re-apply its bytes.
  static constexpr std::size_t kPutDedupCap = 512;
  PageTable<PutRecord> last_put_;  // by segment id
  OpenMap<RxKey, bool, RxKeyTraits> put_done_;
  std::deque<RxKey> put_done_order_;

  std::uint64_t ordma_served_ = 0;
  std::uint64_t ordma_faults_ = 0;
  std::uint64_t ordma_timeouts_ = 0;
  std::uint64_t puts_served_ = 0;
  std::uint64_t put_dups_dropped_ = 0;
  std::uint64_t reassembly_copies_ = 0;
};

}  // namespace ordma::nic
