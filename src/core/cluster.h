// Experiment wiring: one server plus N client hosts on a 2 Gb/s fabric,
// mirroring the paper's 4-node Myrinet cluster. Owns engine, cost model,
// hosts, NICs, the server file system and whichever protocol services an
// experiment instantiates.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fs/server_fs.h"
#include "host/cost_model.h"
#include "host/host.h"
#include "msg/udp.h"
#include "nas/dafs/dafs_client.h"
#include "nas/dafs/dafs_server.h"
#include "nas/nfs/nfs_client.h"
#include "nas/nfs/nfs_server.h"
#include "nas/odafs/odafs_client.h"
#include "net/fabric.h"
#include "nic/nic.h"
#include "obs/metrics.h"
#include "sim/engine.h"

namespace ordma::core {

struct ClusterConfig {
  unsigned num_clients = 1;
  host::CostModel cm{};
  host::HostConfig server_host{MiB(768)};
  host::HostConfig client_host{MiB(512)};
  fs::ServerFsConfig fs{};
  nic::NicConfig nic{};
  // Optional deterministic fault plan: when set, a FaultInjector is created
  // and hooked into every link, NIC and the server disk.
  std::optional<fault::FaultPlan> faults;
  // Retry policy handed to every NFS-family RPC client the factories build.
  rpc::RpcRetryPolicy rpc_retry{};
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg = {})
      : cfg_(cfg),
        cm_(cfg.cm),
        injector_(cfg.faults
                      ? std::make_unique<fault::FaultInjector>(*cfg.faults)
                      : nullptr),
        fabric_(eng_, fabric_config(cfg, injector_.get())) {
    if (injector_) injector_->bind_flight(&eng_);
    server_host_ = std::make_unique<host::Host>(eng_, "server", cm_,
                                                cfg.server_host);
    server_nic_ = std::make_unique<nic::Nic>(*server_host_, fabric_, cfg.nic,
                                             crypto::SipKey{0xA5, 0x5A});
    server_nic_->set_fault_injector(injector_.get());
    server_fs_ = std::make_unique<fs::ServerFs>(*server_host_, cfg.fs);
    server_fs_->disk().set_fault_injector(injector_.get());
    for (unsigned i = 0; i < cfg.num_clients; ++i) {
      auto h = std::make_unique<host::Host>(
          eng_, "client" + std::to_string(i), cm_, cfg.client_host);
      client_nics_.push_back(std::make_unique<nic::Nic>(
          *h, fabric_, cfg.nic, crypto::SipKey{0xC0 + i, 0x0C}));
      client_nics_.back()->set_fault_injector(injector_.get());
      client_hosts_.push_back(std::move(h));
    }
  }

  sim::Engine& engine() { return eng_; }
  host::CostModel& costs() { return cm_; }
  net::Fabric& fabric() { return fabric_; }
  host::Host& server() { return *server_host_; }
  host::Host& client(unsigned i = 0) { return *client_hosts_.at(i); }
  fs::ServerFs& server_fs() { return *server_fs_; }
  net::NodeId server_node() const { return server_nic_->node_id(); }
  nic::Nic& server_nic() { return *server_nic_; }
  nic::Nic& client_nic(unsigned i = 0) { return *client_nics_.at(i); }
  unsigned num_clients() const { return cfg_.num_clients; }
  fault::FaultInjector* fault_injector() { return injector_.get(); }

  // --- services -------------------------------------------------------------
  // NFS: one UDP stack per host; server bound at the well-known port.
  void start_nfs() {
    server_udp_ = std::make_unique<msg::UdpStack>(*server_host_);
    nfs_server_ = std::make_unique<nas::nfs::NfsServer>(
        *server_host_, *server_udp_, *server_fs_);
    client_udp_.resize(client_hosts_.size());
  }
  msg::UdpStack& client_udp(unsigned i) {
    auto& slot = client_udp_.at(i);
    if (!slot) slot = std::make_unique<msg::UdpStack>(*client_hosts_[i]);
    return *slot;
  }

  void start_dafs(nas::dafs::DafsServerConfig cfg = {}) {
    dafs_server_ =
        std::make_unique<nas::dafs::DafsServer>(*server_host_, *server_fs_,
                                                cfg);
  }
  nas::dafs::DafsServer& dafs_server() { return *dafs_server_; }
  nas::nfs::NfsServer& nfs_server() { return *nfs_server_; }

  // --- client factories ----------------------------------------------------
  // Every factory wires the server-CPU echo for the client's signal plane:
  // the client differences this cumulative busy time between its own ops.
  void attach_server_cpu_probe(core::FileClient& cl) {
    host::Host& srv = *server_host_;
    cl.set_server_cpu_probe(
        [&srv] { return static_cast<double>(srv.cpu().busy_time().ns) / 1e3; });
  }
  std::unique_ptr<nas::nfs::NfsClient> make_nfs_client(
      unsigned i, Bytes transfer = KiB(512)) {
    auto cl = std::make_unique<nas::nfs::NfsClient>(
        *client_hosts_[i], client_udp(i), server_node(),
        static_cast<std::uint16_t>(700 + next_port_++), transfer,
        cfg_.rpc_retry);
    attach_server_cpu_probe(*cl);
    return cl;
  }
  std::unique_ptr<nas::nfs::NfsPrepostClient> make_prepost_client(
      unsigned i, Bytes transfer = KiB(512)) {
    auto cl = std::make_unique<nas::nfs::NfsPrepostClient>(
        *client_hosts_[i], client_udp(i), server_node(),
        static_cast<std::uint16_t>(700 + next_port_++), transfer,
        cfg_.rpc_retry);
    attach_server_cpu_probe(*cl);
    return cl;
  }
  std::unique_ptr<nas::nfs::NfsHybridClient> make_hybrid_client(
      unsigned i, Bytes transfer = KiB(512)) {
    auto cl = std::make_unique<nas::nfs::NfsHybridClient>(
        *client_hosts_[i], client_udp(i), server_node(),
        static_cast<std::uint16_t>(700 + next_port_++), transfer,
        cfg_.rpc_retry);
    attach_server_cpu_probe(*cl);
    return cl;
  }
  std::unique_ptr<nas::dafs::DafsClient> make_dafs_client(
      unsigned i, nas::dafs::DafsClientConfig cfg = {}) {
    auto cl = std::make_unique<nas::dafs::DafsClient>(*client_hosts_[i],
                                                      server_node(), cfg);
    attach_server_cpu_probe(*cl);
    return cl;
  }
  std::unique_ptr<nas::odafs::OdafsClient> make_odafs_client(
      unsigned i, nas::odafs::OdafsClientConfig cfg = {}) {
    auto cl = std::make_unique<nas::odafs::OdafsClient>(*client_hosts_[i],
                                                        server_node(), cfg);
    attach_server_cpu_probe(*cl);
    return cl;
  }

  // --- metrics export -------------------------------------------------------
  // Every component's counters become pull-gauges under
  // "<host>/<component>/<stat>" paths, one stats table (obs::Stat) per
  // component type; adding a counter to metrics, timeseries and health is
  // one row. Gauges are sampled when the registry writes its snapshot (or a
  // timeseries sampler closes a window), so this costs nothing during the
  // run. Rows are cumulative unless marked as levels (`false`).
  void export_metrics(obs::MetricsRegistry& reg) {
    static constexpr obs::Stat<host::Host> kHost[] = {
        {"cpu/busy_us", [](auto& h) { return h.cpu().busy_time().ns / 1e3; }},
        {"nic/fw_busy_us", [](auto& h) { return h.nic().fw_busy().ns / 1e3; }},
        {"nic/ordma_served", [](auto& h) { return h.nic().ordma_served(); }},
        {"nic/ordma_faults", [](auto& h) { return h.nic().ordma_faults(); }},
        {"nic/ordma_timeouts",
         [](auto& h) { return h.nic().ordma_timeouts(); }},
        {"nic/reassembly_copies",
         [](auto& h) { return h.nic().reassembly_copies(); }},
        {"nic/rx_queue", [](auto& h) { return h.nic().rx_backlog(); }, false},
    };
    static constexpr obs::Stat<fs::ServerFs> kServerFs[] = {
        {"cache/hits", [](auto& f) { return f.cache().hits(); }},
        {"cache/misses", [](auto& f) { return f.cache().misses(); }},
        {"disk/reads", [](auto& f) { return f.disk().reads(); }},
        {"disk/writes", [](auto& f) { return f.disk().writes(); }},
    };
    static constexpr obs::Stat<const rpc::RpcServer> kRpcServer[] = {
        {"dup_replays", [](auto& r) { return r.dup_replays(); }},
        {"dup_drops", [](auto& r) { return r.dup_drops(); }},
        {"cksum_drops", [](auto& r) { return r.cksum_drops(); }},
    };
    static constexpr obs::Stat<nas::dafs::DafsServer> kDafsServer[] = {
        {"put_commits", [](auto& d) { return d.put_commits(); }},
        {"put_rejects", [](auto& d) { return d.put_rejects(); }},
        {"invalidations_sent", [](auto& d) { return d.invalidations_sent(); }},
        {"invalidation_giveups",
         [](auto& d) { return d.invalidation_giveups(); }},
        {"dup_replays", [](auto& d) { return d.dup_replays(); }},
        {"dup_drops", [](auto& d) { return d.dup_drops(); }},
    };
    static constexpr obs::Stat<nic::Nic> kServerNicPuts[] = {
        {"puts_served", [](auto& n) { return n.puts_served(); }},
        {"put_dups_dropped", [](auto& n) { return n.put_dups_dropped(); }},
    };
    static constexpr obs::Stat<fault::FaultInjector> kFaults[] = {
        {"frames_dropped", [](auto& f) { return f.frames_dropped(); }},
        {"frames_corrupted",
         [](auto& f) {
           return f.frames_corrupted() + f.frames_corrupt_dropped();
         }},
        {"frames_duplicated", [](auto& f) { return f.frames_duplicated(); }},
        {"frames_delayed", [](auto& f) { return f.frames_delayed(); }},
        {"doorbell_stalls", [](auto& f) { return f.doorbell_stalls(); }},
        {"cap_revokes", [](auto& f) { return f.cap_revokes(); }},
        {"tlb_invalidates", [](auto& f) { return f.tlb_invalidates(); }},
        {"disk_errors", [](auto& f) { return f.disk_errors(); }},
        {"put_revokes", [](auto& f) { return f.put_revokes(); }},
    };
    static constexpr obs::Stat<const net::Link> kLink[] = {
        {"bytes", [](auto& l) { return l.bytes_delivered(); }},
        {"backlog", [](auto& l) { return l.backlog(); }, false},
    };

    obs::export_stats(reg, "server/", *server_host_, kHost);
    for (auto& h : client_hosts_) {
      obs::export_stats(reg, h->name() + "/", *h, kHost);
    }
    obs::export_stats(reg, "server/", *server_fs_, kServerFs);
    if (nfs_server_) {
      obs::export_stats(reg, "server/rpc/", nfs_server_->rpc_server(),
                        kRpcServer);
    }
    if (dafs_server_) {
      obs::export_stats(reg, "server/dafs/", *dafs_server_, kDafsServer);
      obs::export_stats(reg, "server/nic/", *server_nic_, kServerNicPuts);
    }
    if (injector_) obs::export_stats(reg, "fault/", *injector_, kFaults);
    for (net::NodeId id = 0; id < fabric_.num_nodes(); ++id) {
      const std::string p = "net/" + std::to_string(id);
      obs::export_stats(reg, p + "/up_", fabric_.uplink(id), kLink);
      obs::export_stats(reg, p + "/down_", fabric_.downlink(id), kLink);
    }
  }

  // Uniform per-client op accounting: op/error/retry rates plus the op
  // latency histogram, under "<client>/io/...". Works for every protocol
  // client (core::FileClient::OpStats); these are the series the health
  // engine's stock SLOs (obs/health.h) suffix-match on.
  void export_file_client_metrics(obs::MetricsRegistry& reg, unsigned i,
                                  const core::FileClient& cl) {
    static constexpr obs::Stat<const core::FileClient::OpStats> kOps[] = {
        {"ops", [](auto& s) { return s.ops; }},
        {"errors", [](auto& s) { return s.errors; }},
        {"retries", [](auto& s) { return s.retries; }},
    };
    // Signal plane (obs/signals.h): the EWMA estimators the adaptive policy
    // (policy/policy.h) reads. Exported for every protocol so benches can
    // trace comparable signal blocks across arms; ORDMA-only series stay at
    // their unprimed zero for protocols without an ORDMA path.
    static constexpr obs::Stat<const obs::OpSignals> kSignals[] = {
        {"ref_hit_rate", [](auto& s) { return s.ref_hit_rate.value(); }, false},
        {"op_bytes", [](auto& s) { return s.op_bytes.value(); }, false},
        {"server_cpu", [](auto& s) { return s.server_cpu.value(); }, false},
        {"exception_rate", [](auto& s) { return s.exception_rate.value(); },
         false},
    };
    const std::string p = client_hosts_.at(i)->name();
    obs::export_stats(reg, p + "/io/", cl.op_stats(), kOps);
    reg.histogram_view(p + "/io/latency_us", &cl.op_stats().latency_us);
    obs::export_stats(reg, p + "/signals/", cl.signals(), kSignals);
  }

  // Per-ODAFS-client series. The client objects are built by the caller
  // (they live outside the cluster), so they are exported separately; the
  // reference-directory hit behaviour these expose — data hits vs RPC
  // fallbacks — is the signal the adaptive policy engine keys on.
  void export_odafs_client_metrics(obs::MetricsRegistry& reg, unsigned i,
                                   nas::odafs::OdafsClient& cl) {
    static constexpr obs::Stat<nas::odafs::OdafsClient> kOdafs[] = {
        {"odafs/rpc_reads", [](auto& c) { return c.rpc_reads(); }},
        {"odafs/ordma_reads", [](auto& c) { return c.ordma_reads(); }},
        {"cache/data_hits",
         [](auto& c) { return c.block_cache().data_hits(); }},
        {"cache/data_misses",
         [](auto& c) { return c.block_cache().data_misses(); }},
        {"cache/refs_held", [](auto& c) { return c.block_cache().refs_held(); },
         false},
        // Write path / coherence traffic.
        {"odafs/puts_issued", [](auto& c) { return c.puts_issued(); }},
        {"odafs/put_commits", [](auto& c) { return c.put_commits(); }},
        {"odafs/put_fallbacks", [](auto& c) { return c.put_fallbacks(); }},
        {"odafs/invalidates_rx", [](auto& c) { return c.invalidates_rx(); }},
        {"odafs/inval_drops", [](auto& c) { return c.inval_drops(); }},
        {"odafs/wb_flushes", [](auto& c) { return c.wb_flushes(); }},
        {"odafs/ordma_faults", [](auto& c) { return c.ordma_faults(); }},
        {"odafs/fetch_give_ups", [](auto& c) { return c.fetch_give_ups(); }},
        {"odafs/integrity_retries",
         [](auto& c) { return c.integrity_retries(); }},
        {"odafs/put_rejects", [](auto& c) { return c.put_rejects(); }},
        {"odafs/inval_refetches",
         [](auto& c) { return c.inval_refetches(); }},
        {"odafs/attr_ordma", [](auto& c) { return c.attr_ordma(); }},
        {"dafs/retransmits", [](auto& c) { return c.dafs().retransmits(); }},
        {"dafs/timeouts", [](auto& c) { return c.dafs().timeouts(); }},
    };
    // Adaptive policy engine (policy/policy.h): decision/flip/exploration
    // counters, plus the current read preference as a level (1.0 = ORDMA,
    // 0.0 = RPC) so a timeseries trace shows a mid-run mechanism flip as a
    // step edge.
    static constexpr obs::Stat<const policy::PolicyEngine> kPolicy[] = {
        {"read_decisions",
         [](auto& p) { return p.counters().read_decisions; }},
        {"read_flips", [](auto& p) { return p.counters().read_flips; }},
        {"read_explored", [](auto& p) { return p.counters().read_explored; }},
        {"read_vetoes", [](auto& p) { return p.counters().read_vetoes; }},
        {"write_decisions",
         [](auto& p) { return p.counters().write_decisions; }},
        {"write_flips", [](auto& p) { return p.counters().write_flips; }},
        {"write_explored", [](auto& p) { return p.counters().write_explored; }},
        {"read_pref",
         [](auto& p) { return p.read_pref() == policy::ReadMech::ordma; },
         false},
    };
    const std::string p = client_hosts_.at(i)->name();
    obs::export_stats(reg, p + "/", cl, kOdafs);
    obs::export_stats(reg, p + "/policy/", cl.protocol_policy(), kPolicy);
  }

  // --- experiment helpers ---------------------------------------------------
  // Create a file of `size` bytes of deterministic content directly in the
  // server fs (setup outside measured time) and optionally warm the cache.
  sim::Task<fs::Ino> make_file(std::string name, Bytes size, bool warm,
                               std::uint64_t seed = 1) {
    auto ino =
        server_fs_->create(fs::ServerFs::kRootIno, name, fs::FileType::regular);
    ORDMA_CHECK(ino.ok());
    std::vector<std::byte> chunk(KiB(64));
    Bytes off = 0;
    std::uint64_t x = seed;
    while (off < size) {
      const Bytes n = std::min<Bytes>(chunk.size(), size - off);
      for (Bytes i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        chunk[i] = static_cast<std::byte>(x >> 56);
      }
      auto wrote = co_await server_fs_->write(ino.value(), off,
                                              {chunk.data(), n});
      ORDMA_CHECK(wrote.ok());
      off += n;
    }
    if (warm) ORDMA_CHECK((co_await server_fs_->warm(ino.value())).ok());
    co_return ino.value();
  }

 private:
  static net::FabricConfig fabric_config(const ClusterConfig&,
                                         fault::FaultInjector* inj) {
    net::FabricConfig c;
    c.injector = inj;
    return c;
  }

  // Declared first, so destroyed last: after every component (and the
  // engine's coroutine frames) has dropped its buffers, their pooled
  // capacity goes back to the heap instead of fragmenting it for the next
  // cluster built on this thread.
  struct ReleasePoolCapacity {
    ~ReleasePoolCapacity() { net::Buffer::release_pool_capacity(); }
  } release_pool_capacity_;
  ClusterConfig cfg_;
  sim::Engine eng_;
  host::CostModel cm_;
  std::unique_ptr<fault::FaultInjector> injector_;  // before fabric_
  net::Fabric fabric_;
  std::unique_ptr<host::Host> server_host_;
  std::unique_ptr<nic::Nic> server_nic_;
  std::unique_ptr<fs::ServerFs> server_fs_;
  std::vector<std::unique_ptr<host::Host>> client_hosts_;
  std::vector<std::unique_ptr<nic::Nic>> client_nics_;
  std::unique_ptr<msg::UdpStack> server_udp_;
  std::vector<std::unique_ptr<msg::UdpStack>> client_udp_;
  std::unique_ptr<nas::nfs::NfsServer> nfs_server_;
  std::unique_ptr<nas::dafs::DafsServer> dafs_server_;
  unsigned next_port_ = 0;
};

}  // namespace ordma::core
