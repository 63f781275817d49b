// Tail-based trace sampling (obs/sampler.h): the determinism contract
// (bit-identical simulation with sampling on vs off), the retention
// guarantees (100% of errored, retried, and above-threshold ops kept), the
// bounded-memory staging accounting, and the exemplar plumbing into
// latency histograms.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/stats.h"
#include "core/cluster.h"
#include "core/file_client.h"
#include "fault/fault.h"
#include "obs/cli.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace ordma {
namespace {

using core::Cluster;
using core::ClusterConfig;
using obs::TraceRecorder;
using obs::TraceSampler;

constexpr Bytes kIo = KiB(8);

void fold(std::uint64_t& h, std::uint64_t v) {
  h = (h ^ v) * 0x100000001b3ull;
}

template <typename F>
void drive(Cluster& c, F&& body) {
  bool done = false;
  c.engine().spawn([](F body, bool& done) -> sim::Task<void> {
    co_await body();
    done = true;
  }(std::forward<F>(body), done));
  c.engine().run();
  ASSERT_TRUE(done) << "driver did not finish (deadlock?)";
}

// One lossy NFS run: `samples` preads under seeded packet drops. Folds a
// golden hash over every simulation-visible value (per-op completion time,
// result size, final clock, event count) — the values a perturbing
// observer would disturb. Optionally attaches a TraceSampler to a
// recorder installed for the measured pass.
struct GoldenRun {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  core::FileClient::OpStats stats;
};

GoldenRun lossy_run(int samples, TraceRecorder* rec,
                    TraceSampler* sampler) {
  ClusterConfig cc;
  cc.faults = fault::FaultPlan{};  // deterministic seed 1
  cc.faults->eth.drop = 0.05;
  cc.rpc_retry.timeout = usec(500);
  cc.rpc_retry.max_attempts = 8;
  Cluster c(cc);
  c.start_nfs();
  auto client = c.make_nfs_client(0);

  GoldenRun out;
  fault::FaultInjector* inj = c.fault_injector();
  inj->set_armed(false);
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", static_cast<Bytes>(samples) * kIo,
                         /*warm=*/true);
  });
  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    ORDMA_CHECK(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), kIo);
    inj->set_armed(true);
    if (rec != nullptr) obs::install(rec);
    for (int i = 0; i < samples; ++i) {
      auto r = co_await client->pread(open.value().fh,
                                      static_cast<Bytes>(i) * kIo, buf, kIo);
      ORDMA_CHECK(r.ok() && r.value() == kIo);
      fold(out.hash, r.value());
      fold(out.hash, static_cast<std::uint64_t>(c.engine().now().ns));
    }
    obs::install(static_cast<TraceRecorder*>(nullptr));
    inj->set_armed(false);
  });
  fold(out.hash, static_cast<std::uint64_t>(c.engine().now().ns));
  if (sampler != nullptr) sampler->finish();
  out.stats = client->op_stats();
  return out;
}

// The determinism contract: sampling on, sampling off, and full (unsampled)
// tracing all produce bit-identical simulations.
TEST(Sampler, GoldenHashIdenticalOnAndOff) {
  constexpr int kSamples = 48;
  const GoldenRun off = lossy_run(kSamples, nullptr, nullptr);

  TraceRecorder rec_full;
  const GoldenRun full = lossy_run(kSamples, &rec_full, nullptr);

  TraceRecorder rec_sampled;
  TraceSampler sampler(rec_sampled);
  const GoldenRun sampled = lossy_run(kSamples, &rec_sampled, &sampler);

  EXPECT_EQ(off.hash, full.hash);
  EXPECT_EQ(off.hash, sampled.hash);
  // Sampling genuinely dropped traces (it is not trivially keeping all).
  EXPECT_GT(sampler.ops_decided(), 0u);
  EXPECT_LT(sampler.ops_kept(), sampler.ops_decided());
  EXPECT_LT(rec_sampled.event_count(), rec_full.event_count());
  EXPECT_GT(rec_sampled.event_count(), 0u);
}

// Retention invariants, observed through the decision hook on a lossy run:
// every errored, retried, or above-rolling-threshold op is kept — 100%,
// not probabilistically.
TEST(Sampler, LossyRunRetainsEveryMarkedAndTailOp) {
  TraceRecorder rec;
  TraceSampler sampler(rec);
  std::vector<TraceSampler::Decision> decisions;
  sampler.set_decision_hook(&decisions,
                            [](void* ctx, const TraceSampler::Decision& d) {
                              static_cast<std::vector<
                                  TraceSampler::Decision>*>(ctx)
                                  ->push_back(d);
                            });
  constexpr int kSamples = 48;
  const GoldenRun run = lossy_run(kSamples, &rec, &sampler);

  ASSERT_EQ(decisions.size(), static_cast<std::size_t>(kSamples));
  unsigned retried = 0, tail = 0;
  for (const auto& d : decisions) {
    if (d.reasons & TraceSampler::kRetry) ++retried;
    if (d.reasons & TraceSampler::kTail) ++tail;
    if (d.reasons &
        (TraceSampler::kError | TraceSampler::kRetry |
         TraceSampler::kException)) {
      EXPECT_TRUE(d.kept) << "marked op " << d.op << " dropped";
    }
    if (d.latency_ns >= d.threshold_ns) {
      EXPECT_TRUE(d.kept) << "tail op " << d.op << " dropped";
    }
    EXPECT_EQ(d.kept, sampler.kept(d.op) || d.op == 0);
  }
  // The run exercised both retention causes, and every op completed.
  EXPECT_GT(retried, 0u);
  EXPECT_GT(tail, 0u);
  EXPECT_EQ(run.stats.ops, static_cast<std::uint64_t>(kSamples));
}

// Bounded memory: staging never exceeds max_staged_ops slots or
// max_events_per_op events per op; overflow is counted, not grown.
TEST(Sampler, StagingIsBoundedByConstruction) {
  TraceRecorder rec;
  const obs::TrackId trk = rec.track("test", "test");
  TraceSampler::Config cfg;
  cfg.max_staged_ops = 4;
  cfg.max_events_per_op = 2;
  cfg.reservoir_n = 1;  // keep everything that reaches a decision
  TraceSampler sampler(rec, cfg);

  // Stage 6 events for each of 8 concurrent ops: 4 ops evicted (FIFO),
  // each survivor's ring holds only its last 2 events.
  for (obs::OpId op = 1; op <= 8; ++op) {
    for (int e = 0; e < 6; ++e) {
      sampler.stage(TraceRecorder::Kind::span, trk, op, "io/x", e * 10,
                    e * 10 + 5);
    }
  }
  EXPECT_EQ(sampler.ops_evicted(), 4u);
  EXPECT_EQ(sampler.events_staged(), 48u);
  EXPECT_EQ(sampler.events_overwritten(), 8u * 4u);

  // Complete the surviving ops; each decision commits at most
  // max_events_per_op staged events + the root.
  for (obs::OpId op = 5; op <= 8; ++op) {
    sampler.stage(TraceRecorder::Kind::root, trk, op, "op/x", 0, 100);
  }
  EXPECT_EQ(sampler.ops_decided(), 4u);
  EXPECT_EQ(sampler.ops_kept(), 4u);
  EXPECT_EQ(sampler.events_kept(), 4u * (2u + 1u));

  // An evicted op's decision still happens — with an empty ring.
  sampler.stage(TraceRecorder::Kind::root, trk, 1, "op/x", 0, 100);
  EXPECT_EQ(sampler.ops_decided(), 5u);
  EXPECT_EQ(sampler.events_kept(), 4u * 3u + 1u);

  sampler.finish();
  EXPECT_EQ(rec.event_count(), 4u * 3u + 1u);
}

// Ambient (op-0) events are dropped and counted under sampling, and
// reservoir_n = 0 disables the reservoir (only marked/tail ops kept).
TEST(Sampler, AmbientDropsAndZeroReservoir) {
  TraceRecorder rec;
  const obs::TrackId trk = rec.track("test", "test");
  TraceSampler::Config cfg;
  cfg.reservoir_n = 0;
  TraceSampler sampler(rec, cfg);

  sampler.stage(TraceRecorder::Kind::span, trk, /*op=*/0, "nic/dma", 0, 5);
  sampler.stage(TraceRecorder::Kind::span, trk, /*op=*/0, "nic/dma", 5, 9);
  EXPECT_EQ(sampler.ambient_dropped(), 2u);

  // Op 1 completes first: kept (tail — no history). Op 2 is faster than
  // the now-nonzero threshold and unmarked: dropped. Op 3 is marked
  // (retry): kept despite being fast.
  sampler.stage(TraceRecorder::Kind::root, trk, 1, "op/a", 0, 1000000);
  sampler.stage(TraceRecorder::Kind::root, trk, 2, "op/b", 0, 10);
  sampler.note_retry(3);
  sampler.stage(TraceRecorder::Kind::root, trk, 3, "op/c", 0, 10);
  EXPECT_TRUE(sampler.kept(1));
  EXPECT_FALSE(sampler.kept(2));
  EXPECT_TRUE(sampler.kept(3));
}

// exemplar_for(): a histogram exemplar may only name an op whose trace is
// actually retained — kept ops (or any op when tracing is unsampled).
TEST(Sampler, ExemplarForRespectsKeepDecision) {
  // No recorder installed: no exemplars at all.
  EXPECT_EQ(obs::exemplar_for(7), 0u);

  TraceRecorder rec;
  obs::install(&rec);
  // Unsampled tracing: every traced op is inspectable.
  EXPECT_EQ(obs::exemplar_for(7), 7u);

  {
    const obs::TrackId trk = rec.track("test", "test");
    TraceSampler::Config cfg;
    cfg.reservoir_n = 0;
    TraceSampler sampler(rec, cfg);
    sampler.stage(TraceRecorder::Kind::root, trk, 1, "op/a", 0, 1000000);
    sampler.stage(TraceRecorder::Kind::root, trk, 2, "op/b", 0, 10);
    EXPECT_EQ(obs::exemplar_for(1), 1u);  // kept
    EXPECT_EQ(obs::exemplar_for(2), 0u);  // dropped
    EXPECT_EQ(obs::exemplar_for(0), 0u);  // ambient
  }
  obs::install(static_cast<TraceRecorder*>(nullptr));

  // And the histogram carries the exemplar per bucket.
  LatencyHistogram h;
  h.add(usec(3), /*exemplar=*/11);
  h.add(usec(700), /*exemplar=*/0);  // dropped op: bucket keeps no tag
  const std::size_t b3 = LatencyHistogram::bucket_for(usec(3));
  const std::size_t b700 = LatencyHistogram::bucket_for(usec(700));
  EXPECT_EQ(h.bucket_exemplar(b3), 11u);
  EXPECT_EQ(h.bucket_exemplar(b700), 0u);
  h.add(usec(3), /*exemplar=*/13);  // most recent tag wins
  EXPECT_EQ(h.bucket_exemplar(b3), 13u);
}

// Same run sampled twice keeps the same ops (fixed private seed), and the
// kept subset replays through the recorder in valid lane order.
TEST(Sampler, SamplingIsReproducible) {
  constexpr int kSamples = 32;
  TraceRecorder rec_a;
  TraceSampler sampler_a(rec_a);
  const GoldenRun a = lossy_run(kSamples, &rec_a, &sampler_a);

  TraceRecorder rec_b;
  TraceSampler sampler_b(rec_b);
  const GoldenRun b = lossy_run(kSamples, &rec_b, &sampler_b);

  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(sampler_a.ops_kept(), sampler_b.ops_kept());
  EXPECT_EQ(sampler_a.events_kept(), sampler_b.events_kept());
  EXPECT_EQ(rec_a.event_count(), rec_b.event_count());
}

// `--sample-traces=<file>:N` takes N only when it fits the sampler's 32-bit
// period; otherwise, like any suffix the parser refuses, the whole argument
// names the trace file. Returns what the written file's name has past
// <file>.
std::string sampled_trace_file(const std::string& arg) {
  const std::string file = ::testing::TempDir() + "ordma_sample_cli.json";
  std::string flag = "--sample-traces=" + file + arg;
  char prog[] = "sampler_test";
  char* argv[] = {prog, flag.data(), nullptr};
  int argc = 2;
  for (const std::string& f : {file, file + arg}) std::remove(f.c_str());
  {
    obs::ObsSession session(argc, argv);
    EXPECT_EQ(argc, 1);
  }
  std::string wrote = "(no file)";
  for (const std::string& f : {file, file + arg}) {
    if (std::FILE* fp = std::fopen(f.c_str(), "r")) {
      std::fclose(fp);
      std::remove(f.c_str());
      wrote = f.substr(file.size());
    }
  }
  return wrote;
}

TEST(Sampler, SampleTracesFlagRefusesAPeriodPastUint32) {
  EXPECT_EQ(sampled_trace_file(":4294967295"), "");  // UINT32_MAX: a period
  EXPECT_EQ(sampled_trace_file(":4294967296"), ":4294967296");
  EXPECT_EQ(sampled_trace_file(":4294967297"), ":4294967297");
  EXPECT_EQ(sampled_trace_file(":99999999999999999999"),
            ":99999999999999999999");  // past long: ERANGE
}

}  // namespace
}  // namespace ordma
