// Ablation A5 — read/write ratio (§4.2.2: "Small read–write ratio. Writes
// require the update of associated file state ... besides the actual data
// transfer").
//
// Re-anchored on the ORDMA write path: the historical claim was that writes
// always travel by RPC, diluting ODAFS's benefit as the write share grows.
// With writable references the client can put bytes straight into the
// server's cache block and commit with one verified round trip — so this
// sweep now pits, at each read fraction, RPC write-through against
// optimistic put-through and write-back through the real put path (a
// coherence-mode server: versioned refs, commit bookkeeping and all).
//
// --json=<file> emits ordma.bench.v1 gated by scripts/bench_compare.py
// against the committed BENCH_write.json: the put path must keep beating
// write-through RPC at every mixed grid point.
#include <memory>

#include "bench_util.h"
#include "bench_json.h"
#include "common/rng.h"
#include "nas/odafs/odafs_client.h"

#include "obs/cli.h"

namespace ordma {
namespace {

constexpr std::size_t kNumFiles = 256;
constexpr std::uint64_t kOps = 4000;

using nas::odafs::WritePolicy;

double run_cell(WritePolicy policy, double read_fraction) {
  core::ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  cc.fs.cache_blocks = 8192;
  core::Cluster c(cc);
  nas::dafs::DafsServerConfig scfg;
  scfg.piggyback_refs = true;
  if (policy != WritePolicy::rpc_through) {
    scfg.writable_refs = true;
    scfg.coherence = true;
  }
  c.start_dafs(scfg);

  nas::odafs::OdafsClientConfig cfg;
  cfg.cache.block_size = KiB(4);
  cfg.cache.data_blocks = kNumFiles / 4;  // 25% hit ratio
  cfg.cache.max_headers = kNumFiles * 4;
  cfg.use_ordma = true;
  cfg.dafs.completion = msg::Completion::block;
  cfg.read_ahead_window = 1;
  cfg.write_policy = policy;
  auto client = c.make_odafs_client(0, cfg);

  double out = 0;
  bench::drive(c, [&]() -> sim::Task<void> {
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(4));
    std::vector<std::uint64_t> fhs;
    for (std::size_t i = 0; i < kNumFiles; ++i) {
      const std::string name = "f" + std::to_string(i);
      co_await c.make_file(name, KiB(4), true, i + 1);
      auto open = co_await client->open(name);
      ORDMA_CHECK(open.ok());
      fhs.push_back(open.value().fh);
      // Warm-up read: caches some data, and — the put path's fuel — leaves
      // a piggybacked (write-capable) reference in every block header.
      (void)co_await client->pread(open.value().fh, 0, buf, KiB(4));
    }

    Rng rng(3);
    const SimTime t0 = c.engine().now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const auto fh = fhs[rng.below(kNumFiles)];
      if (rng.uniform01() < read_fraction) {
        ORDMA_CHECK((co_await client->pread(fh, 0, buf, KiB(4))).ok());
      } else {
        ORDMA_CHECK((co_await client->pwrite(fh, 0, buf, KiB(4))).ok());
      }
    }
    // Write-back buffers are part of the bill: flush them inside the
    // timed region so policies are compared on durable work.
    ORDMA_CHECK((co_await client->sync()).ok());
    out = kOps / (c.engine().now() - t0).to_sec();
  });
  return out;
}

}  // namespace
}  // namespace ordma

int main(int argc, char** argv) {
  ordma::obs::ObsSession obs_session(argc, argv);

  using namespace ordma;
  using namespace ordma::bench;
  using nas::odafs::WritePolicy;

  const std::string json = json_path(argc, argv);

  Table t("Ablation A5: ORDMA write path vs write-through RPC by read/write"
          " mix (4KB ops, 25% client cache hit ratio)",
          {"reads", "RPC-wt ops/s", "put ops/s", "wb ops/s", "put gain",
           "wb gain"});
  BenchReport report("ablation_read_write");
  const double fracs[] = {0.9, 0.75, 0.5, 0.25};
  const WritePolicy policies[] = {WritePolicy::rpc_through,
                                  WritePolicy::put_through,
                                  WritePolicy::write_back};
  auto cells = sweep(obs_session.jobs(), std::size(fracs) * 3,
                     [&](std::size_t i) {
                       return run_cell(policies[i % 3], fracs[i / 3]);
                     });
  for (std::size_t i = 0; i < std::size(fracs); ++i) {
    const double rpc = cells[i * 3];
    const double put = cells[i * 3 + 1];
    const double wb = cells[i * 3 + 2];
    t.add_row({pct(fracs[i]), fmt("%.0f", rpc), fmt("%.0f", put),
               fmt("%.0f", wb), fmt("%+.0f%%", (put - rpc) / rpc * 100.0),
               fmt("%+.0f%%", (wb - rpc) / rpc * 100.0)});
    const std::string r = std::to_string(static_cast<int>(fracs[i] * 100));
    // Simulated-time results reproduce bit-identically: tight bands.
    report.add("ops_per_sec_rpc_r" + r, rpc, "ops/s",
               /*higher_is_better=*/true, 0.02);
    report.add("ops_per_sec_put_r" + r, put, "ops/s",
               /*higher_is_better=*/true, 0.02);
    report.add("ops_per_sec_wb_r" + r, wb, "ops/s",
               /*higher_is_better=*/true, 0.02);
    report.add("put_vs_rpc_gain_r" + r, put / rpc, "x",
               /*higher_is_better=*/true, 0.02);
    report.add("wb_vs_rpc_gain_r" + r, wb / rpc, "x",
               /*higher_is_better=*/true, 0.02);
  }
  t.print();
  std::printf(
      "\ntakeaway: with writable references a commit is one verified round"
      " trip instead of a data-bearing RPC (no per-byte server CPU), so the"
      " write share no longer erases the ODAFS advantage\n");

  if (!write_json(report, json)) return 1;
  return 0;
}
