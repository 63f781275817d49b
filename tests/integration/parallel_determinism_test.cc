// Parallel experiment runner: bit-identical results and thread isolation.
//
// The tentpole claim of run/runner.h is that a sweep of independent
// simulations run at jobs=8 produces byte-for-byte the same per-run results
// as the historical serial loop — hashes, metrics snapshots, explain
// documents, everything. These tests pin that claim, plus the isolation
// that makes it true: concurrent simulations never observe each other's
// trace spans, flight rings, metrics entries, or log levels, because every
// observability install is thread-local.
#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "core/cluster.h"
#include "mem/arena.h"
#include "obs/explain.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/sink.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "run/runner.h"

namespace ordma {
namespace {

void fold(std::uint64_t& h, std::uint64_t v) {
  h = (h ^ v) * 0x100000001b3ull;
}

// One self-contained simulation: a small NFS cluster reading a file with a
// per-run block size, fully observed (trace + metrics installed on the
// executing thread). Returns every kind of result a sweep could want, all
// as plain data.
struct RunOutput {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::size_t trace_events = 0;
  std::string metrics_json;
  std::vector<std::string> metric_paths;  // every registered path
  std::string explain_json;
};

RunOutput observed_run(std::size_t index) {
  obs::TraceRecorder rec;
  obs::install(&rec);
  obs::MetricsRegistry reg;
  obs::install(&reg);

  RunOutput out;
  {
    core::ClusterConfig cc;
    cc.fs.block_size = KiB(4);
    core::Cluster c(cc);
    c.start_nfs();
    c.export_metrics(reg);

    // Per-index workload variation so runs are genuinely distinct.
    const Bytes io = KiB(4) * (1 + index % 4);
    const Bytes fsize = KiB(64);

    bool done = false;
    c.engine().spawn([](core::Cluster& c, Bytes io, Bytes fsize,
                        RunOutput& out, bool& done) -> sim::Task<void> {
      co_await c.make_file("f", fsize, /*warm=*/true);
      auto client = c.make_nfs_client(0, io);
      auto open = co_await client->open("f");
      ORDMA_CHECK(open.ok());
      auto& h = c.client(0);
      const mem::Vaddr buf = h.map_new(h.user_as(), io);
      for (Bytes off = 0; off + io <= fsize; off += io) {
        auto n = co_await client->pread(open.value().fh, off, buf, io);
        ORDMA_CHECK(n.ok());
        fold(out.hash, n.value());
        fold(out.hash, static_cast<std::uint64_t>(c.engine().now().ns));
      }
      done = true;
    }(c, io, fsize, out, done));
    fold(out.hash, c.engine().run());
    ORDMA_CHECK(done);
    fold(out.hash, static_cast<std::uint64_t>(c.engine().now().ns));

    // Snapshot metrics while the cluster (and its gauges) is alive.
    std::ostringstream ms;
    reg.write_json(ms);
    out.metrics_json = ms.str();
  }

  out.trace_events = rec.event_count();
  std::ostringstream es;
  obs::write_explain_json(es, "parallel determinism probe",
                          obs::explain(rec));
  out.explain_json = es.str();

  obs::install(static_cast<obs::TraceRecorder*>(nullptr));
  obs::install(static_cast<obs::MetricsRegistry*>(nullptr));
  return out;
}

TEST(ParallelDeterminism, ParallelRunsAreBitIdenticalToSerial) {
  constexpr std::size_t kRuns = 16;
  const auto serial = run::parallel_map(1, kRuns, observed_run);
  const auto parallel = run::parallel_map(8, kRuns, observed_run);

  ASSERT_EQ(serial.size(), kRuns);
  ASSERT_EQ(parallel.size(), kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_EQ(serial[i].hash, parallel[i].hash) << "run " << i;
    EXPECT_GT(serial[i].trace_events, 0u) << "run " << i;
    EXPECT_EQ(serial[i].trace_events, parallel[i].trace_events)
        << "run " << i;
    EXPECT_EQ(serial[i].metrics_json, parallel[i].metrics_json)
        << "run " << i;
    EXPECT_EQ(serial[i].explain_json, parallel[i].explain_json)
        << "run " << i;
  }
  // The workload variation must have produced distinct runs, or the
  // comparison proves less than it claims.
  EXPECT_NE(serial[0].hash, serial[1].hash);
}

// The per-run arena (mem/arena.h) relocates the engine's timer slabs and
// calendar storage; it must never change what a simulation computes. Pin
// the full observed output — golden hash, trace, metrics, explain — of
// arena-backed runs (including a *reused* arena, the steady state of a
// sweep) against bare heap-backed runs.
TEST(ParallelDeterminism, ArenaOnMatchesArenaOffBitForBit) {
  constexpr std::size_t kRuns = 4;
  const auto bare = run::parallel_map(1, kRuns, observed_run);
  auto arena_run = [](std::size_t i) {
    mem::ScopedSimArena arena;
    return observed_run(i);
  };
  const auto arena_first = run::parallel_map(1, kRuns, arena_run);
  // Second pass reuses the reset arenas out of the thread's pool.
  const auto arena_reused = run::parallel_map(1, kRuns, arena_run);

  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_EQ(bare[i].hash, arena_first[i].hash) << "run " << i;
    EXPECT_EQ(bare[i].hash, arena_reused[i].hash) << "run " << i;
    EXPECT_EQ(bare[i].trace_events, arena_first[i].trace_events)
        << "run " << i;
    EXPECT_EQ(bare[i].metrics_json, arena_first[i].metrics_json)
        << "run " << i;
    EXPECT_EQ(bare[i].explain_json, arena_first[i].explain_json)
        << "run " << i;
    EXPECT_EQ(bare[i].metrics_json, arena_reused[i].metrics_json)
        << "run " << i;
  }
}

// One sweep cell: a small observed cluster workload under a RunScope, whose
// documents land in whichever SinkSet is installed.
void observed_cell(std::size_t index) {
  core::ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  core::Cluster c(cc);
  c.start_nfs();
  const Bytes io = KiB(4) * (1 + index % 4);
  const Bytes fsize = KiB(64);
  auto client = c.make_nfs_client(0, io);

  obs::ts::RunScope ts_run(c.engine(), "cell" + std::to_string(index));
  EXPECT_TRUE(ts_run.active());
  c.export_metrics(ts_run.registry());

  bool done = false;
  c.engine().spawn([](core::Cluster& c, core::FileClient& client, Bytes io,
                      Bytes fsize, bool& done) -> sim::Task<void> {
    co_await c.make_file("f", fsize, /*warm=*/true);
    auto open = co_await client.open("f");
    ORDMA_CHECK(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), io);
    for (Bytes off = 0; off + io <= fsize; off += io) {
      auto n = co_await client.pread(open.value().fh, off, buf, io);
      ORDMA_CHECK(n.ok());
    }
    done = true;
  }(c, *client, io, fsize, done));
  c.engine().run();
  EXPECT_TRUE(done);
}

// One sweep cell producing a timeseries document: installs its own
// thread-local SinkSet (the TlsCtx isolation contract — each worker is its
// own timeseries domain), runs observed_cell, and returns the serialized
// document.
std::string timeseries_run(std::size_t index) {
  mem::ScopedSimArena arena;
  obs::SinkSet sinks;
  sinks.ts_config.interval = usec(20);
  sinks.timeseries.emplace(obs::Sink::Layout::array);
  obs::install_sinks(&sinks);
  observed_cell(index);
  obs::install_sinks(nullptr);
  obs::Sink& sink = *sinks.timeseries;
  EXPECT_EQ(sink.runs(), 1u);
  return sink.runs() ? sink.doc(0) : std::string();
}

TEST(ParallelDeterminism, TimeseriesDocumentsAreBitIdenticalToSerial) {
  constexpr std::size_t kRuns = 8;
  const auto serial = run::parallel_map(1, kRuns, timeseries_run);
  const auto parallel = run::parallel_map(8, kRuns, timeseries_run);
  ASSERT_EQ(serial.size(), kRuns);
  ASSERT_EQ(parallel.size(), kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_FALSE(serial[i].empty()) << "run " << i;
    EXPECT_EQ(serial[i], parallel[i]) << "run " << i;
  }
  // Distinct workloads produced distinct documents, so byte-equality above
  // is meaningful.
  EXPECT_NE(serial[0], serial[1]);
}

// The --metrics/--timeseries/--health path of a parallel sweep: one
// process-global SinkSet, as obs/cli.h installs it, fed by every worker at
// once. Returns the three files' bytes.
std::string shared_sinks_sweep(unsigned jobs, std::size_t runs) {
  obs::SinkSet sinks;
  sinks.ts_config.interval = usec(20);
  sinks.metrics.emplace(obs::Sink::Layout::object);
  sinks.timeseries.emplace(obs::Sink::Layout::array);
  sinks.health.emplace(obs::Sink::Layout::array);
  obs::install_global_sinks(&sinks);
  run::parallel_map(jobs, runs, [](std::size_t i) {
    mem::ScopedSimArena arena;
    observed_cell(i);
    return 0;
  });
  obs::install_global_sinks(nullptr);
  EXPECT_EQ(sinks.metrics->runs(), runs);
  EXPECT_EQ(sinks.timeseries->runs(), runs);
  EXPECT_EQ(sinks.health->runs(), runs);
  std::ostringstream os;
  sinks.metrics->write(os);
  sinks.timeseries->write(os);
  sinks.health->write(os);
  return os.str();
}

TEST(ParallelDeterminism, SharedSinkOutputEqualsSerial) {
  constexpr std::size_t kRuns = 8;
  const std::string serial = shared_sinks_sweep(1, kRuns);
  EXPECT_EQ(serial, shared_sinks_sweep(8, kRuns));
  EXPECT_NE(serial.find("\"cell7\":"), std::string::npos);
}

// The same observed run, but with a TraceSampler between the clients and
// the recorder (the --sample-traces path). Returns the golden hash plus
// the sampler's decision accounting — everything a worker-count change
// could perturb.
struct SampledOutput {
  std::uint64_t hash = 0;
  std::uint64_t ops_decided = 0;
  std::uint64_t ops_kept = 0;
  std::uint64_t events_kept = 0;
  std::size_t trace_events = 0;
  std::string explain_json;
};

SampledOutput sampled_run(std::size_t index) {
  obs::TraceRecorder rec;
  obs::TraceSampler sampler(rec);
  obs::install(&rec);

  SampledOutput out;
  out.hash = 0xcbf29ce484222325ull;
  {
    core::ClusterConfig cc;
    cc.fs.block_size = KiB(4);
    core::Cluster c(cc);
    c.start_nfs();

    // The workload mirrors observed_run exactly (same construction order,
    // same I/O sequence) so the two golden hashes are comparable.
    const Bytes io = KiB(4) * (1 + index % 4);
    const Bytes fsize = KiB(64);

    bool done = false;
    c.engine().spawn([](core::Cluster& c, Bytes io, Bytes fsize,
                        SampledOutput& out, bool& done) -> sim::Task<void> {
      co_await c.make_file("f", fsize, /*warm=*/true);
      auto client = c.make_nfs_client(0, io);
      auto open = co_await client->open("f");
      ORDMA_CHECK(open.ok());
      auto& h = c.client(0);
      const mem::Vaddr buf = h.map_new(h.user_as(), io);
      for (Bytes off = 0; off + io <= fsize; off += io) {
        auto n = co_await client->pread(open.value().fh, off, buf, io);
        ORDMA_CHECK(n.ok());
        fold(out.hash, n.value());
        fold(out.hash, static_cast<std::uint64_t>(c.engine().now().ns));
      }
      done = true;
    }(c, io, fsize, out, done));
    fold(out.hash, c.engine().run());
    ORDMA_CHECK(done);
    fold(out.hash, static_cast<std::uint64_t>(c.engine().now().ns));
  }
  obs::install(static_cast<obs::TraceRecorder*>(nullptr));

  sampler.finish();
  out.ops_decided = sampler.ops_decided();
  out.ops_kept = sampler.ops_kept();
  out.events_kept = sampler.events_kept();
  out.trace_events = rec.event_count();
  std::ostringstream es;
  obs::write_explain_json(es, "sampled parallel determinism probe",
                          obs::explain(rec));
  out.explain_json = es.str();
  return out;
}

// --sample-traces at jobs=8 vs jobs=1: bit-identical golden hashes,
// decisions, kept sets, and explain documents — and the golden hash
// matches the *unsampled* runs, pinning "sampling never perturbs the
// simulation" across worker counts.
TEST(ParallelDeterminism, SampledRunsAreBitIdenticalToSerial) {
  constexpr std::size_t kRuns = 8;
  const auto serial = run::parallel_map(1, kRuns, sampled_run);
  const auto parallel = run::parallel_map(8, kRuns, sampled_run);
  const auto unsampled = run::parallel_map(8, kRuns, observed_run);

  ASSERT_EQ(serial.size(), kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_EQ(serial[i].hash, parallel[i].hash) << "run " << i;
    EXPECT_EQ(serial[i].hash, unsampled[i].hash) << "run " << i;
    EXPECT_EQ(serial[i].ops_decided, parallel[i].ops_decided) << "run " << i;
    EXPECT_EQ(serial[i].ops_kept, parallel[i].ops_kept) << "run " << i;
    EXPECT_EQ(serial[i].events_kept, parallel[i].events_kept)
        << "run " << i;
    EXPECT_EQ(serial[i].trace_events, parallel[i].trace_events)
        << "run " << i;
    EXPECT_EQ(serial[i].explain_json, parallel[i].explain_json)
        << "run " << i;
    // Sampling genuinely dropped something and kept something.
    EXPECT_GT(serial[i].ops_decided, 0u) << "run " << i;
    EXPECT_GT(serial[i].ops_kept, 0u) << "run " << i;
    EXPECT_LT(serial[i].trace_events, unsampled[i].trace_events)
        << "run " << i;
  }
}

// Health documents are byte-identical whether the sweep ran serial or
// 8-wide.
std::string health_run(std::size_t index) {
  mem::ScopedSimArena arena;
  core::ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  core::Cluster c(cc);
  c.start_nfs();
  const Bytes io = KiB(4) * (1 + index % 4);
  const Bytes fsize = KiB(64);
  auto client = c.make_nfs_client(0, io);

  obs::MetricsRegistry reg;
  c.export_metrics(reg);
  c.export_file_client_metrics(reg, 0, *client);
  obs::health::HealthMonitor mon(reg);
  mon.arm(c.engine(), usec(20));

  bool done = false;
  c.engine().spawn([](core::Cluster& c, core::FileClient& client, Bytes io,
                      Bytes fsize, bool& done) -> sim::Task<void> {
    co_await c.make_file("f", fsize, /*warm=*/true);
    auto open = co_await client.open("f");
    ORDMA_CHECK(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), io);
    for (Bytes off = 0; off + io <= fsize; off += io) {
      auto n = co_await client.pread(open.value().fh, off, buf, io);
      ORDMA_CHECK(n.ok());
    }
    done = true;
  }(c, *client, io, fsize, done));
  c.engine().run();
  ORDMA_CHECK(done);

  std::ostringstream os;
  mon.write_json(os, "cell" + std::to_string(index));
  return os.str();
}

TEST(ParallelDeterminism, HealthDocumentsAreBitIdenticalToSerial) {
  constexpr std::size_t kRuns = 8;
  const auto serial = run::parallel_map(1, kRuns, health_run);
  const auto parallel = run::parallel_map(8, kRuns, health_run);
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_FALSE(serial[i].empty()) << "run " << i;
    EXPECT_EQ(serial[i], parallel[i]) << "run " << i;
    EXPECT_NE(serial[i].find("\"schema\":\"ordma.health.v1\""),
              std::string::npos)
        << "run " << i;
  }
}

// One ODAFS run with the adaptive protocol-selection engine in a given
// state: a mixed read/write workload against a coherent, writable-refs
// server, fully observed. The policy engine decides per-op mechanisms from
// observed history only (no RNG, no sim time), so its presence must never
// perturb parallel determinism — and with enabled=false it must leave the
// simulation bit-identical to one that predates the engine.
RunOutput odafs_run(std::size_t index, const policy::PolicyConfig& pol) {
  mem::ScopedSimArena arena;
  obs::MetricsRegistry reg;
  obs::install(&reg);

  RunOutput out;
  {
    core::ClusterConfig cc;
    cc.fs.block_size = KiB(4);
    core::Cluster c(cc);
    c.start_dafs({.piggyback_refs = true,
                  .writable_refs = true,
                  .coherence = true});

    nas::odafs::OdafsClientConfig cfg;
    cfg.cache.block_size = KiB(4);
    cfg.cache.data_blocks = 16;  // small: plenty of refetches to decide on
    cfg.cache.ref_policy = "arc";
    cfg.dafs.completion = msg::Completion::block;
    cfg.read_ahead_window = 1;
    cfg.write_policy = nas::odafs::WritePolicy::put_through;
    cfg.policy = pol;
    auto client = c.make_odafs_client(0, cfg);
    c.export_metrics(reg);
    c.export_file_client_metrics(reg, 0, *client);
    c.export_odafs_client_metrics(reg, 0, *client);

    const Bytes io = KiB(4);
    const Bytes fsize = KiB(4) * 48 * (1 + index % 2);

    bool done = false;
    c.engine().spawn([](core::Cluster& c, nas::odafs::OdafsClient& client,
                        Bytes io, Bytes fsize, RunOutput& out,
                        bool& done) -> sim::Task<void> {
      co_await c.make_file("f", fsize, /*warm=*/true);
      auto open = co_await client.open("f");
      ORDMA_CHECK(open.ok());
      auto& h = c.client(0);
      const mem::Vaddr buf = h.map_new(h.user_as(), io);
      // Two passes (second one re-reads through held references, so the
      // engine sees real ORDMA latencies) with a write every 4th op.
      for (int pass = 0; pass < 2; ++pass) {
        for (Bytes off = 0; off + io <= fsize; off += io) {
          if ((off / io) % 4 == 3) {
            auto n = co_await client.pwrite(open.value().fh, off, buf, io);
            ORDMA_CHECK(n.ok());
            fold(out.hash, 0x77);
          } else {
            auto n = co_await client.pread(open.value().fh, off, buf, io);
            ORDMA_CHECK(n.ok());
            fold(out.hash, n.value());
          }
          fold(out.hash, static_cast<std::uint64_t>(c.engine().now().ns));
        }
      }
      ORDMA_CHECK((co_await client.sync()).ok());
      done = true;
    }(c, *client, io, fsize, out, done));
    fold(out.hash, c.engine().run());
    ORDMA_CHECK(done);
    fold(out.hash, static_cast<std::uint64_t>(c.engine().now().ns));
    fold(out.hash, client->ordma_reads());
    fold(out.hash, client->rpc_reads());
    fold(out.hash, client->puts_issued());
    fold(out.hash, client->protocol_policy().counters().read_decisions);
    fold(out.hash, client->protocol_policy().counters().write_decisions);

    std::ostringstream ms;
    reg.write_json(ms);
    out.metrics_json = ms.str();
    obs::MetricsRegistry::DeltaCursor cursor;
    std::vector<obs::MetricsRegistry::Delta> rows;
    reg.delta_snapshot(cursor, rows);
    for (const auto& row : rows) out.metric_paths.push_back(*row.path);
  }
  obs::install(static_cast<obs::MetricsRegistry*>(nullptr));
  return out;
}

// Adaptive policy on: jobs=8 bit-identical to jobs=1 — the engine's
// decisions are pure functions of per-run history, so worker count cannot
// perturb them.
TEST(ParallelDeterminism, AdaptivePolicyRunsAreBitIdenticalToSerial) {
  constexpr std::size_t kRuns = 8;
  auto adaptive = [](std::size_t i) {
    policy::PolicyConfig pol;
    pol.enabled = true;
    pol.explore_every = 16;
    return odafs_run(i, pol);
  };
  const auto serial = run::parallel_map(1, kRuns, adaptive);
  const auto parallel = run::parallel_map(8, kRuns, adaptive);
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_EQ(serial[i].hash, parallel[i].hash) << "run " << i;
    EXPECT_EQ(serial[i].metrics_json, parallel[i].metrics_json)
        << "run " << i;
  }
  EXPECT_NE(serial[0].hash, serial[1].hash);
  // The recovery counters of the ODAFS client, its DAFS transport and the
  // DAFS server all reach the registry (hence timeseries and health too).
  const std::vector<std::string>& paths = serial[0].metric_paths;
  for (const char* path :
       {"client0/odafs/ordma_faults", "client0/odafs/fetch_give_ups",
        "client0/odafs/integrity_retries", "client0/odafs/put_rejects",
        "client0/odafs/inval_refetches", "client0/odafs/attr_ordma",
        "client0/dafs/retransmits", "client0/dafs/timeouts",
        "server/dafs/dup_replays", "server/dafs/dup_drops"}) {
    EXPECT_NE(std::find(paths.begin(), paths.end(), path), paths.end())
        << "missing metric: " << path;
  }
}

// Policy off: the engine must be invisible. A config that never mentions
// the policy and one with enabled=false but wildly different tunables must
// produce byte-identical runs (no decisions, no extra state transitions,
// no RNG draws either way).
TEST(ParallelDeterminism, DisabledPolicyLeavesRunsBitIdentical) {
  constexpr std::size_t kRuns = 4;
  const auto plain = run::parallel_map(8, kRuns, [](std::size_t i) {
    return odafs_run(i, policy::PolicyConfig{});
  });
  const auto tuned_off = run::parallel_map(8, kRuns, [](std::size_t i) {
    policy::PolicyConfig pol;  // enabled stays false
    pol.prior_ordma_us = 999.0;
    pol.guard_band = 0.5;
    pol.explore_every = 1;
    return odafs_run(i, pol);
  });
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_EQ(plain[i].hash, tuned_off[i].hash) << "run " << i;
    EXPECT_EQ(plain[i].metrics_json, tuned_off[i].metrics_json)
        << "run " << i;
  }
}

TEST(ParallelDeterminism, ResultsArriveInSubmissionOrder) {
  auto out = run::parallel_map(4, 64, [](std::size_t i) { return i * 3; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 3);
}

TEST(ParallelDeterminism, FirstJobExceptionPropagates) {
  EXPECT_THROW(
      run::parallel_map(4, 16,
                        [](std::size_t i) -> int {
                          if (i == 7) throw std::runtime_error("job 7");
                          return 0;
                        }),
      std::runtime_error);
}

// What each concurrently-running job observed of the per-thread
// observability state, collected while all jobs were provably in flight
// (barrier-synchronized) and asserted on the main thread.
struct IsolationProbe {
  std::size_t rings_before = 0;   // live flight rings before creating ours
  std::string flight_dump;        // dump_all while every job held a ring
  std::size_t trace_events = 0;   // events in this thread's recorder
  std::size_t metrics_entries = 0;
  std::string run_label;
  int log_level = 0;
};

TEST(ParallelDeterminism, ConcurrentSimulationsNeverObserveEachOther) {
  constexpr unsigned kJobs = 4;
  // With exactly one job per worker no stealing happens, so all four run
  // concurrently and the barriers cannot deadlock.
  std::barrier gate(kJobs);
  run::ParallelRunner runner(kJobs);
  auto probes = runner.map(kJobs, [&gate](std::size_t i) {
    IsolationProbe p;
    const LogLevel prev_level = Log::level();
    Log::level() = static_cast<LogLevel>(i % 3);
    obs::flight::set_run_label("iso" + std::to_string(i));

    obs::TraceRecorder rec;
    obs::install(&rec);
    obs::MetricsRegistry reg;
    obs::install(&reg);

    p.rings_before = [] {
      // Count rings indirectly: a dump with no rings is header + "end".
      return obs::flight::dump_all_string("probe").find("ring ") ==
                     std::string::npos
                 ? 0
                 : 1;
    }();

    obs::flight::Ring ring("ring" + std::to_string(i), 64);
    ring.record(0, obs::flight::Ev::cache_hit, i);

    obs::Track track("host" + std::to_string(i), "cpu");
    obs::span(track, obs::new_op(), "io/probe", SimTime{0},
              SimTime{static_cast<std::int64_t>(i + 1)});
    reg.counter("job" + std::to_string(i) + "/count").inc();

    // Every job now holds a live ring, recorder and registry. Only after
    // all of them do, snapshot what this thread can see.
    gate.arrive_and_wait();
    p.flight_dump = obs::flight::dump_all_string("isolation");
    p.trace_events = rec.event_count();
    p.metrics_entries = reg.size();
    p.run_label = obs::flight::run_label();
    p.log_level = static_cast<int>(Log::level());
    gate.arrive_and_wait();  // no teardown until everyone has snapshotted

    obs::install(static_cast<obs::TraceRecorder*>(nullptr));
    obs::install(static_cast<obs::MetricsRegistry*>(nullptr));
    obs::flight::set_run_label({});
    Log::level() = prev_level;  // worker 0 is the calling thread
    return p;
  });

  ASSERT_EQ(probes.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    const IsolationProbe& p = probes[i];
    EXPECT_EQ(p.rings_before, 0u) << "job " << i;
    // The dump names this job's ring — and nobody else's.
    EXPECT_NE(p.flight_dump.find("ring ring" + std::to_string(i)),
              std::string::npos)
        << "job " << i;
    for (std::size_t j = 0; j < kJobs; ++j) {
      if (j == i) continue;
      EXPECT_EQ(p.flight_dump.find("ring ring" + std::to_string(j)),
                std::string::npos)
          << "job " << i << " saw job " << j << "'s ring";
    }
    EXPECT_NE(p.flight_dump.find("job=iso" + std::to_string(i)),
              std::string::npos)
        << "job " << i;
    EXPECT_EQ(p.trace_events, 1u) << "job " << i;
    EXPECT_EQ(p.metrics_entries, 1u) << "job " << i;
    EXPECT_EQ(p.run_label, "iso" + std::to_string(i));
    EXPECT_EQ(p.log_level, static_cast<int>(i % 3)) << "job " << i;
  }
  // The main thread's state was never touched by any worker.
  EXPECT_EQ(obs::recorder(), nullptr);
  EXPECT_EQ(obs::registry(), nullptr);
  EXPECT_TRUE(obs::flight::run_label().empty());
}

TEST(ParallelDeterminism, LogLevelDefaultsAreThreadLocal) {
  const LogLevel before = Log::level();
  Log::set_default_level(LogLevel::info);
  // A fresh thread starts from the process-wide default, and changing its
  // own level must not leak into this thread. (A bare std::thread rather
  // than the runner, because the runner's worker 0 IS this thread.)
  int spawned_initial = -1;
  std::thread t([&spawned_initial] {
    spawned_initial = static_cast<int>(Log::level());
    Log::level() = LogLevel::trace;
  });
  t.join();
  EXPECT_EQ(spawned_initial, static_cast<int>(LogLevel::info));
  EXPECT_EQ(Log::level(), LogLevel::info);
  Log::set_default_level(before);
}

}  // namespace
}  // namespace ordma
