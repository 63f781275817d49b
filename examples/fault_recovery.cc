// Fault-recovery walkthrough: the heart of *optimistic* RDMA. A client
// collects remote memory references, the server's cache churns (references
// go stale), and the client's next ORDMA faults at the server NIC — a
// recoverable NIC-to-NIC exception — and recovers transparently via RPC,
// never observing reused memory.
//
//   ./build/examples/fault_recovery
#include <cstdio>

#include "core/cluster.h"
#include "obs/timeseries.h"

#include "obs/cli.h"

using namespace ordma;

int main(int argc, char** argv) {
  ordma::obs::ObsSession obs_session(argc, argv);

  core::ClusterConfig cfg;
  cfg.fs.block_size = KiB(4);
  cfg.fs.cache_blocks = 48;  // tiny server cache → heavy churn
  core::Cluster cluster(cfg);
  cluster.start_dafs({.piggyback_refs = true});

  nas::odafs::OdafsClientConfig cc;
  cc.cache.block_size = KiB(4);
  cc.cache.data_blocks = 16;
  cc.cache.max_headers = 8192;
  cc.read_ahead_window = 1;
  auto client = cluster.make_odafs_client(0, cc);

  bool done = false;
  {
    // Under --timeseries: the ORDMA fault/recovery storm below shows up as a
    // spike window in client0/nic/ordma_faults and client0/odafs/rpc_reads
    // (the run lasts ~520ms of simulated time; --timeseries=ts.json:5ms
    // gives a readable ~100-window grid). Scoped so the trailing gauge
    // sample happens while cluster and client are alive.
    obs::ts::RunScope ts_run(cluster.engine(), "fault_recovery");
    if (ts_run.active()) {
      cluster.export_metrics(ts_run.registry());
      cluster.export_file_client_metrics(ts_run.registry(), 0, *client);
      cluster.export_odafs_client_metrics(ts_run.registry(), 0, *client);
    }

    cluster.engine().spawn([](core::Cluster& c,
                              nas::odafs::OdafsClient& client,
                              bool& done) -> sim::Task<void> {
      co_await c.make_file("a.dat", KiB(128), true, /*seed=*/1);
      co_await c.make_file("b.dat", KiB(192), false, /*seed=*/2);
      auto& h = c.client(0);
      const mem::Vaddr buf = h.map_new(h.user_as(), KiB(192));

      auto a = co_await client.open("a.dat");
      ORDMA_CHECK(a.ok());
      (void)co_await client.pread(a.value().fh, 0, buf, KiB(128));
      std::printf("pass 1 over a.dat: %llu RPC reads, %zu references"
                  " collected\n",
                  static_cast<unsigned long long>(client.rpc_reads()),
                  client.block_cache().refs_held());

      // Server cache churn: stream b.dat through the 48-block server cache,
      // evicting a.dat's blocks. Every eviction revokes the exported segment.
      auto b = co_await client.open("b.dat");
      (void)co_await client.pread(b.value().fh, 0, buf, KiB(192));
      std::printf("streamed b.dat: server cache now holds b's blocks;"
                  " a's references are stale\n");

      // The client still holds a.dat references and optimistically tries
      // ORDMA; the server NIC faults each stale access and the client falls
      // back to RPC, collecting fresh references.
      const auto faults0 = client.ordma_faults();
      auto n = co_await client.pread(a.value().fh, 0, buf, KiB(128));
      ORDMA_CHECK(n.ok());
      std::printf("pass 2 over a.dat: %llu ORDMA faults caught and recovered"
                  " via RPC\n",
                  static_cast<unsigned long long>(client.ordma_faults() -
                                                  faults0));

      // Verify content integrity end to end (generator from
      // Cluster::make_file).
      std::vector<std::byte> got(KiB(128));
      ORDMA_CHECK(h.user_as().read(buf, got).ok());
      std::uint64_t x = 1;
      bool intact = true;
      for (auto& byte : got) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        intact &= byte == static_cast<std::byte>(x >> 56);
      }
      std::printf("data integrity across the fault path: %s\n",
                  intact ? "INTACT" : "CORRUPTED");
      ORDMA_CHECK(intact);
      done = true;
    }(cluster, *client, done));
    cluster.engine().run();
  }
  // Write the outputs (the flight dump above all) while the cluster whose
  // rings they read is still alive.
  obs_session.flush();
  return done ? 0 : 1;
}
