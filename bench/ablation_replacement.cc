// Ablation A2 — replacement policy for the ORDMA reference directory
// (§4.2: "we assume ... LRU ... a more appropriate strategy would be
// similar to the multi-queue algorithm for storage server caches").
//
// A skewed PostMark-like workload (80% of reads hit 20% of files) with a
// reference directory smaller than the file set: MQ protects the hot
// files' references from the scan of cold files, so more misses go via
// ORDMA instead of falling back to RPC. ARC (cache/policy.h) adapts its
// recency/frequency split online and is the third arm.
//
// --json=<file> emits ordma.bench.v1 for perf-regression gating.
#include <memory>

#include "bench_json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "nas/odafs/odafs_client.h"

#include "obs/cli.h"

namespace ordma {
namespace {

constexpr std::size_t kNumFiles = 1024;  // 4 KB each
constexpr std::uint64_t kTxns = 6000;

struct Cell {
  double txns_per_sec = 0;
  double ordma_fraction = 0;  // misses served by ORDMA (vs RPC)
};

Cell run_cell(const std::string& ref_policy) {
  core::ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  cc.fs.cache_blocks = 8192;
  core::Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});

  nas::odafs::OdafsClientConfig cfg;
  cfg.cache.block_size = KiB(4);
  cfg.cache.data_blocks = 64;          // tiny data cache: most reads miss
  cfg.cache.max_headers = kNumFiles / 2;  // directory covers half the set
  cfg.cache.ref_policy = ref_policy;
  cfg.use_ordma = true;
  cfg.dafs.completion = msg::Completion::block;
  cfg.read_ahead_window = 1;
  auto client = c.make_odafs_client(0, cfg);

  Cell cell;
  bench::drive(c, [&]() -> sim::Task<void> {
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(4));

    // Build the file set server-side and open every file once.
    std::vector<std::uint64_t> fhs;
    for (std::size_t i = 0; i < kNumFiles; ++i) {
      const std::string name = "f" + std::to_string(i);
      co_await c.make_file(name, KiB(4), true, i + 1);
      auto open = co_await client->open(name);
      ORDMA_CHECK(open.ok());
      fhs.push_back(open.value().fh);
    }

    // Skewed access (80% of reads to the hottest 10% of files) polluted by
    // periodic sequential scans over cold files — the access pattern the
    // multi-queue paper targets: recency alone evicts the hot entries on
    // every scan, frequency keeps them.
    Rng rng(7);
    const SimTime t0 = c.engine().now();
    const auto ordma0 = client->ordma_reads();
    const auto rpc0 = client->rpc_reads();
    const std::size_t hot = kNumFiles / 10;
    std::size_t scan_pos = hot;
    std::uint64_t t = 0;
    std::uint64_t work_ordma = 0, work_rpc = 0;
    while (t < kTxns) {
      // Working phase: 256 skewed transactions (the phase we care about).
      const auto po = client->ordma_reads();
      const auto pr = client->rpc_reads();
      for (int k = 0; k < 256 && t < kTxns; ++k, ++t) {
        const std::size_t idx = rng.chance(0.8)
                                    ? rng.below(hot)
                                    : hot + rng.below(kNumFiles - hot);
        auto n = co_await client->pread(fhs[idx], 0, buf, KiB(4));
        ORDMA_CHECK(n.ok());
      }
      work_ordma += client->ordma_reads() - po;
      work_rpc += client->rpc_reads() - pr;
      // Burst scan longer than the directory: one touch per cold file.
      // LRU loses every hot reference to the scan; MQ's frequency queues
      // keep them.
      for (int k = 0; k < 640 && t < kTxns; ++k, ++t) {
        auto n = co_await client->pread(fhs[scan_pos], 0, buf, KiB(4));
        ORDMA_CHECK(n.ok());
        scan_pos = scan_pos + 1 >= kNumFiles ? hot : scan_pos + 1;
      }
    }
    (void)ordma0;
    (void)rpc0;
    const auto elapsed = c.engine().now() - t0;
    cell.txns_per_sec = kTxns / elapsed.to_sec();
    cell.ordma_fraction =
        static_cast<double>(work_ordma) /
        static_cast<double>(work_ordma + work_rpc);
  });
  return cell;
}

}  // namespace
}  // namespace ordma

int main(int argc, char** argv) {
  ordma::obs::ObsSession obs_session(argc, argv);

  using namespace ordma;
  using namespace ordma::bench;

  const std::string json = json_path(argc, argv);

  Table t("Ablation A2: ORDMA directory replacement policy"
          " (skewed access, directory covers half the file set)",
          {"policy", "txns/s", "working-set misses via ORDMA"});
  const char* policies[] = {"lru", "mq", "arc"};
  auto cells = sweep(obs_session.jobs(), std::size(policies),
                     [&](std::size_t i) { return run_cell(policies[i]); });
  const Cell& lru = cells[0];
  const Cell& mq = cells[1];
  const Cell& arc = cells[2];
  t.add_row({"LRU (paper)", fmt("%.0f", lru.txns_per_sec),
             pct(lru.ordma_fraction)});
  t.add_row({"Multi-Queue (paper's suggestion)", fmt("%.0f", mq.txns_per_sec),
             pct(mq.ordma_fraction)});
  t.add_row({"ARC (ghost lists, self-tuning)", fmt("%.0f", arc.txns_per_sec),
             pct(arc.ordma_fraction)});
  t.print();
  std::printf(
      "\ntakeaway: under scan pressure MQ keeps hot references resident,"
      " serving %.0f%% of working-set misses by ORDMA vs %.0f%% for LRU;"
      " ARC (%.0f%%) tracks LRU here — a pure scan re-hits its ghost lists"
      " too rarely to move the recency/frequency split; it self-tunes only"
      " when the miss history has structure to learn\n",
      mq.ordma_fraction * 100.0, lru.ordma_fraction * 100.0,
      arc.ordma_fraction * 100.0);

  BenchReport report("ablation_replacement");
  for (std::size_t i = 0; i < std::size(policies); ++i) {
    const std::string p = policies[i];
    report.add(p + "_txns_per_sec", cells[i].txns_per_sec, "txns/s",
               /*higher_is_better=*/true, 0.02);
    report.add(p + "_ordma_fraction", cells[i].ordma_fraction, "fraction",
               /*higher_is_better=*/true, 0.02);
  }
  return write_json(report, json) ? 0 : 1;
}
