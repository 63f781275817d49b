// Engine throughput harness — not a paper figure, but the speed limit for
// every figure: all experiments are bottlenecked by how many simulated
// events/sec the discrete-event core retires. Drives four microbenchmarks
// (pure timers, coroutine yields, channel handoffs, a mixed spawn-heavy
// workload) plus a fig6-style PostMark end-to-end run, prints events/sec
// and wall-clock for each, and (with --json=<file>) emits an ordma.bench.v1
// document that scripts/bench_compare.py diffs against the committed
// BENCH_engine.json baseline to gate CI on perf regressions.
#include <ctime>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "nas/odafs/odafs_client.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "sim/channel.h"
#include "sim/engine.h"
#include "sim/task.h"
#include "workload/postmark.h"

#include "obs/cli.h"

namespace ordma {
namespace {

// Process CPU time, not wall-clock: the build/CI machines are heavily
// shared, and the engine is single-threaded CPU-bound work, so CPU seconds
// are the stable quantity.
double cpu_now() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
struct Clock {
  using time_point = double;
  static time_point now() { return cpu_now(); }
};

double secs_since(Clock::time_point t0) { return cpu_now() - t0; }

struct MicroResult {
  std::string name;
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec() const { return events / wall_s; }
};

// Pure schedule_fn timers at staggered future times: exercises the
// schedule → heap → fire → recycle cycle with no coroutine machinery.
MicroResult bench_timers(std::uint64_t n) {
  sim::Engine eng;
  // Self-rescheduling chains keep the heap small (like a real run) while
  // still pushing n total events through it.
  constexpr int kChains = 64;
  std::uint64_t fired = 0;
  const std::uint64_t per_chain = n / kChains;
  struct Chain {
    sim::Engine* eng;
    std::uint64_t left;
    Duration step;
    std::uint64_t* fired;
    void arm() {
      eng->schedule_fn(step, [this] {
        ++*fired;
        if (--left > 0) arm();
      });
    }
  };
  std::vector<Chain> chains;
  chains.reserve(kChains);
  for (int i = 0; i < kChains; ++i) {
    chains.push_back(Chain{&eng, per_chain, usec(1 + i % 17), &fired});
  }
  const auto t0 = Clock::now();
  for (auto& c : chains) c.arm();
  eng.run();
  return {"timer", fired, secs_since(t0)};
}

// Tight yield loops: every event is a zero-delay coroutine resumption, the
// dominant event class in NIC/RPC handoff code.
MicroResult bench_yields(std::uint64_t n) {
  sim::Engine eng;
  constexpr int kProcs = 16;
  const std::uint64_t per_proc = n / kProcs;
  for (int i = 0; i < kProcs; ++i) {
    eng.spawn([](sim::Engine& e, std::uint64_t iters) -> sim::Task<void> {
      for (std::uint64_t k = 0; k < iters; ++k) co_await e.yield();
    }(eng, per_proc));
  }
  const auto t0 = Clock::now();
  const std::uint64_t fired = eng.run();
  return {"yield", fired, secs_since(t0)};
}

// Producer/consumer pairs over Channel<int>: each message is a send, a
// waiter wake-up (zero-delay event) and a resume.
MicroResult bench_channels(std::uint64_t n) {
  sim::Engine eng;
  constexpr int kPairs = 8;
  const std::uint64_t per_pair = n / kPairs;
  std::vector<std::unique_ptr<sim::Channel<int>>> chans;
  for (int i = 0; i < kPairs; ++i) {
    chans.push_back(std::make_unique<sim::Channel<int>>(eng));
    auto& ch = *chans.back();
    eng.spawn([](sim::Channel<int>& ch, std::uint64_t iters)
                  -> sim::Task<void> {
      for (std::uint64_t k = 0; k < iters; ++k) (void)co_await ch.recv();
    }(ch, per_pair));
    eng.spawn([](sim::Engine& e, sim::Channel<int>& ch,
                 std::uint64_t iters) -> sim::Task<void> {
      for (std::uint64_t k = 0; k < iters; ++k) {
        ch.send(static_cast<int>(k));
        co_await e.yield();  // let the consumer drain (ping-pong)
      }
    }(eng, ch, per_pair));
  }
  const auto t0 = Clock::now();
  const std::uint64_t fired = eng.run();
  return {"channel", fired, secs_since(t0)};
}

// Mixed workload: short-lived spawned processes doing delays and yields —
// stresses process bookkeeping (spawn/reap) alongside the queues.
MicroResult bench_mixed(std::uint64_t n) {
  sim::Engine eng;
  constexpr int kSpawners = 4;
  const std::uint64_t children = n / (kSpawners * 8);
  for (int i = 0; i < kSpawners; ++i) {
    eng.spawn([](sim::Engine& e, std::uint64_t kids) -> sim::Task<void> {
      for (std::uint64_t k = 0; k < kids; ++k) {
        e.spawn([](sim::Engine& e2, std::uint64_t seed) -> sim::Task<void> {
          co_await e2.delay(usec(seed % 7));
          co_await e2.yield();
          co_await e2.delay(usec(seed % 3));
          co_await e2.yield();
        }(e, k));
        co_await e.delay(usec(1));
      }
    }(eng, children));
  }
  const auto t0 = Clock::now();
  const std::uint64_t fired = eng.run();
  return {"mixed", fired, secs_since(t0)};
}

// Fig6-style PostMark cell (ODAFS, 50% target hit ratio): the end-to-end
// number — full client/NIC/fabric/server stack per transaction.
MicroResult bench_postmark() {
  constexpr std::size_t kNumFiles = 512;
  constexpr std::uint64_t kTxns = 40000;

  core::ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  cc.fs.cache_blocks = 8192;
  core::Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});

  nas::odafs::OdafsClientConfig cfg;
  cfg.cache.block_size = KiB(4);
  cfg.cache.data_blocks = kNumFiles / 2;
  cfg.cache.max_headers = kNumFiles * 4;
  cfg.use_ordma = true;
  cfg.dafs.completion = msg::Completion::block;
  cfg.read_ahead_window = 1;
  auto client = c.make_odafs_client(0, cfg);

  wl::PostMarkConfig pm;
  pm.num_files = kNumFiles;
  pm.min_size = KiB(4);
  pm.max_size = KiB(4);
  pm.transactions = kTxns;
  pm.read_only = true;
  pm.io_block = KiB(4);
  wl::PostMark postmark(c.client(0), *client, pm);

  const auto t0 = Clock::now();
  bench::drive(c, [&]() -> sim::Task<void> {
    ORDMA_CHECK((co_await postmark.setup()).ok());
    ORDMA_CHECK((co_await postmark.warmup()).ok());
    ORDMA_CHECK((co_await postmark.run()).ok());
  });
  return {"fig6_postmark", kTxns, secs_since(t0)};
}

// The same PostMark cell with --sample-traces-style observability attached
// (recorder + tail sampler on this thread): measures the fully-sampled obs
// tax on an end-to-end run. The sampled_obs_overhead metric gates the
// "sampling costs <= 5% of obs-off throughput" budget in CI.
MicroResult bench_postmark_sampled() {
  obs::TraceRecorder rec;
  obs::TraceSampler sampler(rec);
  obs::install(&rec);
  MicroResult r = bench_postmark();
  obs::install(static_cast<obs::TraceRecorder*>(nullptr));
  sampler.finish();
  r.name = "fig6_postmark_sampled";
  return r;
}

}  // namespace
}  // namespace ordma

int main(int argc, char** argv) {
  ordma::obs::ObsSession obs_session(argc, argv);

  using namespace ordma;
  using namespace ordma::bench;

  // --json=<file>: ordma.bench.v1 metrics for scripts/bench_compare.py
  // (BENCH_engine.json in the repo root is the committed baseline).
  const std::string json = json_path(argc, argv);

  constexpr std::uint64_t kMicroEvents = 4'000'000;

  std::vector<MicroResult> results;
  results.push_back(bench_timers(kMicroEvents));
  results.push_back(bench_yields(kMicroEvents));
  results.push_back(bench_channels(kMicroEvents));
  results.push_back(bench_mixed(kMicroEvents));
  // The sampled/plain ratio below gates the sampling overhead budget, so
  // this pair needs walls that survive a preempted shared runner: run the
  // halves interleaved and keep each one's best wall.
  MicroResult postmark_plain = bench_postmark();
  MicroResult postmark_sampled = bench_postmark_sampled();
  for (int rep = 1; rep < 5; ++rep) {
    MicroResult p = bench_postmark();
    if (p.wall_s < postmark_plain.wall_s) postmark_plain = p;
    MicroResult s = bench_postmark_sampled();
    if (s.wall_s < postmark_sampled.wall_s) postmark_sampled = s;
  }
  results.push_back(postmark_plain);
  results.push_back(postmark_sampled);

  Table t("Engine throughput (events/sec, higher is better)",
          {"workload", "events", "wall (s)", "events/sec"});
  for (const auto& r : results) {
    t.add_row({r.name, fmt("%.0f", static_cast<double>(r.events)),
               fmt("%.3f", r.wall_s), fmt("%.3g", r.events_per_sec())});
  }
  t.print();

  // Sampled-vs-plain throughput on the same cell: both halves run in this
  // process back to back, so shared-runner noise largely cancels out of
  // the ratio.
  const double sampled_overhead =
      results[results.size() - 1].events_per_sec() /
      results[results.size() - 2].events_per_sec();
  std::printf("\nsampled obs throughput ratio (sampled/plain): %.3f\n",
              sampled_overhead);

  BenchReport report("bench_engine");
  for (const auto& r : results) {
    // Wall-clock rates on a shared runner swing hard: a loose band keeps
    // the gate meaningful (order-of-magnitude regressions) without
    // tripping on noisy neighbours.
    report.add(r.name + "_events_per_sec", r.events_per_sec(), "events/s",
               /*higher_is_better=*/true, 0.6);
  }
  // The ratio is noise-cancelled (see above) so it takes a band an order
  // of magnitude tighter than the raw rates: nominal is ~0.95-1.0 (the
  // sampling budget is <= ~5% of obs-off throughput), and an 8% band
  // below the committed baseline still catches every real staging-path
  // regression while tolerating shared-runner cache pollution.
  report.add("sampled_obs_overhead", sampled_overhead, "ratio",
             /*higher_is_better=*/true, 0.08);
  return write_json(report, json, "\n") ? 0 : 1;
}
