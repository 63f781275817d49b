// Ablation A8 — adaptive per-op protocol selection (policy/policy.h): one
// policy curve against every static protocol choice.
//
// Three grids, five arms each. The static arms are the four fixed protocol
// configurations the rest of the suite measures — DAFS (no ORDMA), ODAFS
// with RPC write-through, ODAFS put-through, ODAFS write-back — and the
// fifth arm is ODAFS with the adaptive engine deciding per I/O (plus the
// ARC reference directory):
//
//  * fig3-style block-size grid (4/16/64 KB ops, warm server cache): the
//    crossover between mechanisms moves with request size;
//  * fig7-style success-rate grid (server cache at 100/50/25% of the file):
//    stale references make ORDMA fault, and past the crossover a static
//    ODAFS arm burns exception round trips that RPC never pays;
//  * fault-phase crossover cells: a cap-revoke fault plan armed for a duty
//    cycle of each phase window (50%, 25%). No static arm can win both
//    phases — the engine flips mechanism mid-run and beats them all.
//
// The claim gated by BENCH_policy.json: adaptive >= best static (within
// tolerance) at EVERY grid point, and strictly better at the crossover
// cells. --json=<file> emits ordma.bench.v1 for scripts/bench_compare.py.
#include <memory>
#include <string>

#include "bench_json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "nas/odafs/odafs_client.h"
#include "obs/timeseries.h"

#include "obs/cli.h"

namespace ordma {
namespace {

using nas::odafs::WritePolicy;

constexpr std::uint64_t kOps = 12000;
constexpr std::size_t kFileBlocks = 96;  // file size = 96 * block
constexpr unsigned kPhaseOps = 3000;     // fault duty-cycle window, in ops

struct Arm {
  const char* name;
  bool use_ordma;
  WritePolicy wp;
  bool adaptive;
};

// The four static protocol configurations, then the policy curve.
constexpr Arm kArms[] = {
    {"dafs", false, WritePolicy::rpc_through, false},
    {"odafs_rpc", true, WritePolicy::rpc_through, false},
    {"odafs_put", true, WritePolicy::put_through, false},
    {"odafs_wb", true, WritePolicy::write_back, false},
    {"adaptive", true, WritePolicy::put_through, true},
};
constexpr std::size_t kNumArms = std::size(kArms);

struct CellCfg {
  std::string label;                 // grid-point slug, e.g. "blk16k"
  Bytes block = KiB(4);              // fs block == cache block == op size
  double server_cache_fraction = 1.0;  // <1: references go stale (fig7)
  double fault_duty = 0.0;           // >0: cap-revoke plan, armed this
                                     // fraction of every kPhaseOps window
};

struct CellOut {
  double ops_per_sec = 0;
  double ordma_fraction = 0;  // fetches served by ORDMA (vs RPC)
  std::uint64_t read_flips = 0;
};

CellOut run_cell(const Arm& arm, const CellCfg& g) {
  const Bytes fsize = g.block * kFileBlocks;
  core::ClusterConfig cc;
  cc.fs.block_size = g.block;
  cc.fs.cache_blocks = std::max<std::size_t>(
      8, static_cast<std::size_t>(kFileBlocks * g.server_cache_fraction));
  cc.nic.tlb_entries = 65536;
  if (g.fault_duty > 0) {
    // A revoke storm at the server NIC faults every ORDMA resolve — gets
    // and puts alike; inline RPC (below) stays clean, so the mechanisms
    // genuinely trade places between phases.
    fault::FaultPlan plan;
    plan.seed = 23;
    plan.nic.cap_revoke = 0.9;
    cc.faults = plan;
  }
  core::Cluster c(cc);
  if (c.fault_injector()) c.fault_injector()->set_armed(false);
  c.start_dafs({.piggyback_refs = true,
                .writable_refs = true,
                .coherence = true});
  bench::drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", fsize, g.server_cache_fraction >= 1.0);
  });

  nas::odafs::OdafsClientConfig cfg;
  cfg.cache.block_size = g.block;
  cfg.cache.data_blocks = 16;  // far below the file: fetches dominate
  cfg.cache.max_headers = 4 * kFileBlocks;
  cfg.cache.ref_policy = arm.adaptive ? "arc" : "lru";
  cfg.use_ordma = arm.use_ordma;
  cfg.inline_rpc = true;  // RPC replies carry data inline → cap-revoke-proof
  // One shot per mechanism before degrading: under a revoke storm, retrying
  // a lost put burns round trips the RPC fallback recovers in one.
  cfg.max_fetch_attempts = 1;
  cfg.dafs.completion = msg::Completion::block;
  cfg.read_ahead_window = 1;
  cfg.write_policy = arm.wp;
  if (arm.adaptive) {
    cfg.policy.enabled = true;
    cfg.policy.allow_write_back = true;
    cfg.policy.alpha = 0.3;         // track phase changes briskly
    cfg.policy.explore_every = 24;  // recover the shunned arm within a phase
    cfg.policy.fault_decay = 0.7;   // rehabilitate it in a couple of probes
  }
  auto client = c.make_odafs_client(0, cfg);

  // Under --timeseries each (arm, grid-point) is one run document; the
  // "<client>/policy/read_pref" point gauge shows the adaptive arm's
  // mid-run mechanism flip as a step edge.
  obs::ts::RunScope ts_run(c.engine(),
                           std::string(arm.name) + "." + g.label);
  if (ts_run.active()) {
    c.export_metrics(ts_run.registry());
    c.export_file_client_metrics(ts_run.registry(), 0, *client);
    c.export_odafs_client_metrics(ts_run.registry(), 0, *client);
  }

  CellOut out;
  bench::drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    ORDMA_CHECK(open.ok());
    const std::uint64_t fh = open.value().fh;
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), g.block);
    // Warm pass, fault-free: collect references for every block (some go
    // stale as the undersized server cache churns).
    for (std::uint64_t i = 0; i < kFileBlocks; ++i) {
      (void)co_await client->fetch_block(fh, i);
    }

    fault::FaultInjector* inj = c.fault_injector();
    const unsigned armed_ops =
        static_cast<unsigned>(kPhaseOps * g.fault_duty);
    Rng rng(17);
    const SimTime t0 = c.engine().now();
    const auto ordma0 = client->ordma_reads();
    const auto rpc0 = client->rpc_reads();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      if (inj) inj->set_armed(i % kPhaseOps < armed_ops);
      const std::uint64_t blk = rng.below(kFileBlocks);
      if (rng.chance(0.3)) {
        auto n = co_await client->pwrite(fh, blk * g.block, buf, g.block);
        ORDMA_CHECK(n.ok());
      } else {
        auto n = co_await client->pread(fh, blk * g.block, buf, g.block);
        ORDMA_CHECK(n.ok());
      }
    }
    if (inj) inj->set_armed(false);
    ORDMA_CHECK((co_await client->sync()).ok());
    out.ops_per_sec = kOps / (c.engine().now() - t0).to_sec();
    const double ordma = static_cast<double>(client->ordma_reads() - ordma0);
    const double rpc = static_cast<double>(client->rpc_reads() - rpc0);
    out.ordma_fraction = ordma + rpc > 0 ? ordma / (ordma + rpc) : 0.0;
    out.read_flips = client->protocol_policy().counters().read_flips;
  });
  return out;
}

}  // namespace
}  // namespace ordma

int main(int argc, char** argv) {
  ordma::obs::ObsSession obs_session(argc, argv);

  using namespace ordma;
  using namespace ordma::bench;

  const std::string json = json_path(argc, argv);

  // The full grid: 3 block sizes + 3 success rates + 2 fault duty cycles,
  // every point measured for all five arms. Crossover cells are the two
  // fault-phase points — the ones where no static arm can win both phases.
  std::vector<CellCfg> grid;
  for (const Bytes b : {KiB(4), KiB(16), KiB(64)}) {
    grid.push_back({"blk" + std::to_string(b / 1024) + "k", b, 1.0, 0.0});
  }
  for (const double frac : {1.0, 0.5, 0.25}) {
    grid.push_back({"cache" + std::to_string(static_cast<int>(frac * 100)),
                    KiB(4), frac, 0.0});
  }
  const std::size_t first_crossover = grid.size();
  for (const double duty : {0.5, 0.25}) {
    grid.push_back({"fault" + std::to_string(static_cast<int>(duty * 100)),
                    KiB(4), 1.0, duty});
  }

  auto cells = sweep(obs_session.jobs(), grid.size() * kNumArms,
                     [&](std::size_t i) {
                       return run_cell(kArms[i % kNumArms],
                                       grid[i / kNumArms]);
                     });

  Table t("Ablation A8: adaptive per-op protocol selection vs every static"
          " arm (mixed 70/30 read/write, ops/s)",
          {"grid point", "DAFS", "ODAFS rpc", "ODAFS put", "ODAFS wb",
           "adaptive", "vs best static", "adaptive ORDMA", "flips"});
  BenchReport report("ablation_policy");
  bool dominated = true;
  std::size_t strictly_better = 0;
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    const CellOut* row = &cells[gi * kNumArms];
    const CellOut& adaptive = row[kNumArms - 1];
    double best_static = 0;
    for (std::size_t a = 0; a + 1 < kNumArms; ++a) {
      best_static = std::max(best_static, row[a].ops_per_sec);
    }
    const double margin = adaptive.ops_per_sec / best_static;
    t.add_row({grid[gi].label, fmt("%.0f", row[0].ops_per_sec),
               fmt("%.0f", row[1].ops_per_sec),
               fmt("%.0f", row[2].ops_per_sec),
               fmt("%.0f", row[3].ops_per_sec),
               fmt("%.0f", adaptive.ops_per_sec),
               fmt("%+.1f%%", (margin - 1.0) * 100.0),
               pct(adaptive.ordma_fraction),
               fmt("%.0f", static_cast<double>(adaptive.read_flips))});
    for (std::size_t a = 0; a < kNumArms; ++a) {
      report.add(grid[gi].label + "_" + kArms[a].name + "_ops",
                 row[a].ops_per_sec, "ops/s", /*higher_is_better=*/true,
                 0.02);
    }
    // The headline series: the policy curve relative to the best static
    // arm at this grid point. >= ~1.0 everywhere is the dominance claim.
    report.add("margin_" + grid[gi].label, margin, "ratio",
               /*higher_is_better=*/true, 0.03);
    if (margin < 0.97) dominated = false;
    if (gi >= first_crossover && margin > 1.02) ++strictly_better;
  }
  t.print();
  std::printf(
      "\ntakeaway: the adaptive engine rides the best mechanism at every"
      " grid point (>=97%% of the best static arm) and wins outright at"
      " %zu/2 fault-phase crossover cells, where it flips mechanism"
      " mid-run and no static choice can follow\n",
      strictly_better);

  bool ok = true;
  if (!dominated) {
    std::fprintf(stderr,
                 "FAIL: adaptive fell below best-static tolerance at one or"
                 " more grid points\n");
    ok = false;
  }
  if (strictly_better < 2) {
    std::fprintf(stderr,
                 "FAIL: adaptive strictly beat best-static at only %zu of 2"
                 " crossover cells\n",
                 strictly_better);
    ok = false;
  }

  if (!write_json(report, json)) return 1;
  return ok ? 0 : 1;
}
