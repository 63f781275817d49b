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

  // Register pull-gauges for every component's counters under
  // "<host>/<component>/<stat>" paths. Sampled when the registry writes its
  // snapshot (or when a timeseries sampler closes a window), so this costs
  // nothing during the run itself. Monotone totals are registered as
  // *cumulative* gauges so obs/timeseries.h differences them into
  // per-window rates; instantaneous levels (queue depths) stay point
  // samples.
  void export_metrics(obs::MetricsRegistry& reg) {
    constexpr bool kCumulative = true;
    auto host_gauges = [&reg](host::Host& h, nic::Nic& n) {
      const std::string p = h.name();
      reg.gauge(p + "/cpu/busy_us",
                [&h] { return h.cpu().busy_time().ns / 1e3; }, kCumulative);
      reg.gauge(p + "/nic/fw_busy_us",
                [&n] { return n.fw_busy().ns / 1e3; }, kCumulative);
      reg.gauge(p + "/nic/ordma_served",
                [&n] { return static_cast<double>(n.ordma_served()); },
                kCumulative);
      reg.gauge(p + "/nic/ordma_faults",
                [&n] { return static_cast<double>(n.ordma_faults()); },
                kCumulative);
      reg.gauge(p + "/nic/ordma_timeouts",
                [&n] { return static_cast<double>(n.ordma_timeouts()); },
                kCumulative);
      reg.gauge(p + "/nic/rx_queue",
                [&n] { return static_cast<double>(n.rx_backlog()); });
    };
    host_gauges(*server_host_, *server_nic_);
    for (std::size_t i = 0; i < client_hosts_.size(); ++i) {
      host_gauges(*client_hosts_[i], *client_nics_[i]);
    }
    fs::ServerFs& sfs = *server_fs_;
    reg.gauge("server/cache/hits", [&sfs] {
      return static_cast<double>(sfs.cache().hits());
    }, kCumulative);
    reg.gauge("server/cache/misses", [&sfs] {
      return static_cast<double>(sfs.cache().misses());
    }, kCumulative);
    reg.gauge("server/disk/reads", [&sfs] {
      return static_cast<double>(sfs.disk().reads());
    }, kCumulative);
    reg.gauge("server/disk/writes", [&sfs] {
      return static_cast<double>(sfs.disk().writes());
    }, kCumulative);
    if (nfs_server_) {
      nas::nfs::NfsServer& srv = *nfs_server_;
      reg.gauge("server/rpc/dup_replays", [&srv] {
        return static_cast<double>(srv.rpc_server().dup_replays());
      }, kCumulative);
      reg.gauge("server/rpc/dup_drops", [&srv] {
        return static_cast<double>(srv.rpc_server().dup_drops());
      }, kCumulative);
      reg.gauge("server/rpc/cksum_drops", [&srv] {
        return static_cast<double>(srv.rpc_server().cksum_drops());
      }, kCumulative);
    }
    if (dafs_server_) {
      nas::dafs::DafsServer& srv = *dafs_server_;
      reg.gauge("server/dafs/put_commits", [&srv] {
        return static_cast<double>(srv.put_commits());
      }, kCumulative);
      reg.gauge("server/dafs/put_rejects", [&srv] {
        return static_cast<double>(srv.put_rejects());
      }, kCumulative);
      reg.gauge("server/dafs/invalidations_sent", [&srv] {
        return static_cast<double>(srv.invalidations_sent());
      }, kCumulative);
      reg.gauge("server/dafs/invalidation_giveups", [&srv] {
        return static_cast<double>(srv.invalidation_giveups());
      }, kCumulative);
      reg.gauge("server/dafs/wb_syncs", [&srv] {
        return static_cast<double>(srv.wb_syncs());
      }, kCumulative);
      nic::Nic& snic = *server_nic_;
      reg.gauge("server/nic/puts_served", [&snic] {
        return static_cast<double>(snic.puts_served());
      }, kCumulative);
      reg.gauge("server/nic/put_dups_dropped", [&snic] {
        return static_cast<double>(snic.put_dups_dropped());
      }, kCumulative);
    }
    if (injector_) {
      fault::FaultInjector& inj = *injector_;
      reg.gauge("fault/frames_dropped", [&inj] {
        return static_cast<double>(inj.frames_dropped());
      }, kCumulative);
      reg.gauge("fault/frames_corrupted", [&inj] {
        return static_cast<double>(inj.frames_corrupted() +
                                   inj.frames_corrupt_dropped());
      }, kCumulative);
      reg.gauge("fault/frames_duplicated", [&inj] {
        return static_cast<double>(inj.frames_duplicated());
      }, kCumulative);
      reg.gauge("fault/frames_delayed", [&inj] {
        return static_cast<double>(inj.frames_delayed());
      }, kCumulative);
      reg.gauge("fault/doorbell_stalls", [&inj] {
        return static_cast<double>(inj.doorbell_stalls());
      }, kCumulative);
      reg.gauge("fault/cap_revokes", [&inj] {
        return static_cast<double>(inj.cap_revokes());
      }, kCumulative);
      reg.gauge("fault/tlb_invalidates", [&inj] {
        return static_cast<double>(inj.tlb_invalidates());
      }, kCumulative);
      reg.gauge("fault/disk_errors", [&inj] {
        return static_cast<double>(inj.disk_errors());
      }, kCumulative);
      reg.gauge("fault/put_revokes", [&inj] {
        return static_cast<double>(inj.put_revokes());
      }, kCumulative);
    }
    net::Fabric& fab = fabric_;
    for (net::NodeId id = 0; id < fab.num_nodes(); ++id) {
      const std::string p = "net/" + std::to_string(id);
      reg.gauge(p + "/up_bytes", [&fab, id] {
        return static_cast<double>(fab.uplink(id).bytes_delivered());
      }, kCumulative);
      reg.gauge(p + "/down_bytes", [&fab, id] {
        return static_cast<double>(fab.downlink(id).bytes_delivered());
      }, kCumulative);
      reg.gauge(p + "/up_backlog", [&fab, id] {
        return static_cast<double>(fab.uplink(id).backlog());
      });
      reg.gauge(p + "/down_backlog", [&fab, id] {
        return static_cast<double>(fab.downlink(id).backlog());
      });
    }
  }

  // Uniform per-client op accounting: op/error/retry rates plus the op
  // latency histogram, under "<client>/io/...". Works for every protocol
  // client (core::FileClient::OpStats); these are the series the health
  // engine's stock SLOs (obs/health.h) suffix-match on.
  void export_file_client_metrics(obs::MetricsRegistry& reg, unsigned i,
                                  const core::FileClient& cl) {
    constexpr bool kCumulative = true;
    const std::string p = client_hosts_.at(i)->name();
    const core::FileClient::OpStats& st = cl.op_stats();
    reg.gauge(p + "/io/ops",
              [&st] { return static_cast<double>(st.ops); }, kCumulative);
    reg.gauge(p + "/io/errors",
              [&st] { return static_cast<double>(st.errors); }, kCumulative);
    reg.gauge(p + "/io/retries",
              [&st] { return static_cast<double>(st.retries); }, kCumulative);
    reg.histogram_view(p + "/io/latency_us", &st.latency_us);
    // Signal plane (obs/signals.h): the EWMA estimators the adaptive policy
    // (policy/policy.h) reads. Exported for every protocol so benches can
    // trace comparable signal blocks across arms; ORDMA-only series stay at
    // their unprimed zero for protocols without an ORDMA path. Point
    // samples, not deltas.
    const obs::OpSignals& sig = cl.signals();
    reg.gauge(p + "/signals/ref_hit_rate",
              [&sig] { return sig.ref_hit_rate.value(); });
    reg.gauge(p + "/signals/op_bytes",
              [&sig] { return sig.op_bytes.value(); });
    reg.gauge(p + "/signals/server_cpu",
              [&sig] { return sig.server_cpu.value(); });
    reg.gauge(p + "/signals/exception_rate",
              [&sig] { return sig.exception_rate.value(); });
  }

  // Per-ODAFS-client series. The client objects are built by the caller
  // (they live outside the cluster), so they are exported separately; the
  // reference-directory hit behaviour these expose — data hits vs RPC
  // fallbacks — is the signal the ROADMAP item 4 policy engine keys on.
  void export_odafs_client_metrics(obs::MetricsRegistry& reg, unsigned i,
                                   nas::odafs::OdafsClient& cl) {
    constexpr bool kCumulative = true;
    const std::string p = client_hosts_.at(i)->name();
    reg.gauge(p + "/odafs/rpc_reads",
              [&cl] { return static_cast<double>(cl.rpc_reads()); },
              kCumulative);
    reg.gauge(p + "/odafs/ordma_reads",
              [&cl] { return static_cast<double>(cl.ordma_reads()); },
              kCumulative);
    reg.gauge(p + "/cache/data_hits", [&cl] {
      return static_cast<double>(cl.block_cache().data_hits());
    }, kCumulative);
    reg.gauge(p + "/cache/data_misses", [&cl] {
      return static_cast<double>(cl.block_cache().data_misses());
    }, kCumulative);
    reg.gauge(p + "/cache/refs_held", [&cl] {
      return static_cast<double>(cl.block_cache().refs_held());
    });
    // Write path / coherence traffic.
    reg.gauge(p + "/odafs/puts_issued",
              [&cl] { return static_cast<double>(cl.puts_issued()); },
              kCumulative);
    reg.gauge(p + "/odafs/put_commits",
              [&cl] { return static_cast<double>(cl.put_commits()); },
              kCumulative);
    reg.gauge(p + "/odafs/put_fallbacks",
              [&cl] { return static_cast<double>(cl.put_fallbacks()); },
              kCumulative);
    reg.gauge(p + "/odafs/invalidates_rx",
              [&cl] { return static_cast<double>(cl.invalidates_rx()); },
              kCumulative);
    reg.gauge(p + "/odafs/inval_drops",
              [&cl] { return static_cast<double>(cl.inval_drops()); },
              kCumulative);
    reg.gauge(p + "/odafs/wb_flushes",
              [&cl] { return static_cast<double>(cl.wb_flushes()); },
              kCumulative);
    // Adaptive policy engine (policy/policy.h): decision/flip/exploration
    // counters as cumulative series, plus the current read preference as a
    // point gauge (1.0 = ORDMA, 0.0 = RPC) so a timeseries trace shows the
    // mid-run mechanism flip as a step edge.
    const policy::PolicyEngine& pol = cl.protocol_policy();
    const policy::PolicyEngine::Counters& pn = pol.counters();
    reg.gauge(p + "/policy/read_decisions",
              [&pn] { return static_cast<double>(pn.read_decisions); },
              kCumulative);
    reg.gauge(p + "/policy/read_flips",
              [&pn] { return static_cast<double>(pn.read_flips); },
              kCumulative);
    reg.gauge(p + "/policy/read_explored",
              [&pn] { return static_cast<double>(pn.read_explored); },
              kCumulative);
    reg.gauge(p + "/policy/read_vetoes",
              [&pn] { return static_cast<double>(pn.read_vetoes); },
              kCumulative);
    reg.gauge(p + "/policy/write_decisions",
              [&pn] { return static_cast<double>(pn.write_decisions); },
              kCumulative);
    reg.gauge(p + "/policy/write_flips",
              [&pn] { return static_cast<double>(pn.write_flips); },
              kCumulative);
    reg.gauge(p + "/policy/write_explored",
              [&pn] { return static_cast<double>(pn.write_explored); },
              kCumulative);
    reg.gauge(p + "/policy/read_pref", [&pol] {
      return pol.read_pref() == policy::ReadMech::ordma ? 1.0 : 0.0;
    });
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
