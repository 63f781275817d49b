// Seed-driven torture harness for the ORDMA/RPC fallback paths.
//
// Each run builds a full cluster with a deterministic FaultInjector, drives
// a seeded mixed read/write workload through one protocol client while the
// adversarial fault plan drops, duplicates, corrupts and delays frames and
// injects spurious NIC exceptions — then verifies:
//
//   * no lost or duplicated completions (every op returns exactly once and
//     the driver runs to the end — a hung recovery path shows up as the
//     engine draining with the workload unfinished);
//   * data integrity: every successful read matches a byte-exact reference
//     model, and a final fault-free sweep re-verifies the whole file;
//   * bounded retries: under a plan hostile enough to defeat them, ops
//     surface clean errors instead of hanging;
//   * bit-determinism: the same seed produces an identical event-stream
//     hash, with and without tracing, and a zero-probability plan behaves
//     identically to no injector at all.
//
// Seed matrix control:
//   TORTURE_SEEDS=<n>     run seeds 1..n per protocol (default 6; CI: 32)
//   TORTURE_SEED=<s>      replay exactly one seed (failing-seed repro)
//   TORTURE_JOBS=<n>      worker threads for the seed matrix (default: all
//                         cores; 1 = the historical serial run). Results
//                         are bit-identical at any worker count — each run
//                         is a self-contained simulation and every
//                         observability install is thread-local.
//   TORTURE_FAIL_FILE=<p> append "proto seed" lines for failing runs
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "mem/arena.h"
#include "obs/flight.h"
#include "obs/sink.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "rpc/xdr.h"
#include "run/runner.h"

namespace ordma {
namespace {

using core::Cluster;
using core::ClusterConfig;

// hybrid is NFS with server-initiated RDMA into a registered user buffer,
// whose unacked data frames it verifies by checksum and re-reads.
// odafs_put / odafs_wb run the ORDMA write path (optimistic put-through /
// write-back) against a coherence server; plain odafs keeps the historical
// RPC write-through behavior. odafs_policy layers the adaptive per-op
// protocol-selection engine (policy/policy.h, all arms unlocked including
// write-back) plus the ARC reference directory on top of the coherence
// server — the faults must not confuse the engine into losing data.
enum class Proto {
  nfs, prepost, hybrid, dafs, odafs, odafs_put, odafs_wb, odafs_policy
};

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::nfs: return "nfs";
    case Proto::prepost: return "prepost";
    case Proto::hybrid: return "hybrid";
    case Proto::dafs: return "dafs";
    case Proto::odafs: return "odafs";
    case Proto::odafs_put: return "odafs_put";
    case Proto::odafs_wb: return "odafs_wb";
    case Proto::odafs_policy: return "odafs_policy";
  }
  return "?";
}

// Must match Cluster::make_file's content generator.
std::vector<std::byte> file_pattern(Bytes size, std::uint64_t seed = 1) {
  std::vector<std::byte> out(size);
  std::uint64_t x = seed;
  for (Bytes i = 0; i < size; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    out[i] = static_cast<std::byte>(x >> 56);
  }
  return out;
}

void fold(std::uint64_t& h, std::uint64_t v) {
  // FNV-1a-style fold, one 64-bit lane at a time.
  h = (h ^ v) * 0x100000001b3ull;
}

struct TortureOptions {
  Proto proto = Proto::nfs;
  std::uint64_t seed = 1;
  bool tracing = false;
  // Fault source: none (no injector at all), zero (all-zero plan installed:
  // must behave identically to `none`), adversarial, or brutal (defeats the
  // bounded retries so give-up paths surface errors).
  enum class Faults { none, zero, adversarial, brutal } faults =
      Faults::adversarial;
  unsigned ops = 32;
  // Verify reads against the reference model. Off for brutal runs: a write
  // that gave up may still have executed server-side, so the model is
  // unknowable there by design.
  bool verify = true;
};

struct TortureResult {
  bool completed = false;            // driver ran to the end
  std::uint64_t completions = 0;     // ops that returned (exactly once each)
  std::uint64_t failures = 0;        // ops that returned an error
  std::uint64_t integrity_violations = 0;
  std::uint64_t hash = 0xcbf29ce484222325ull;  // golden event-stream hash
  std::uint64_t injected = 0;        // total faults the injector fired
  // Flight-recorder postmortem, captured before the cluster (and its rings)
  // is torn down whenever the run looks wrong; report_failure() writes it
  // next to TORTURE_FAIL_FILE so CI uploads it with the failing seeds.
  std::string flight_dump;
};

TortureResult run_torture(const TortureOptions& opt) {
  // Name this run for flight-recorder postmortems: a parallel matrix job
  // that dies identifies its (proto, seed) in the dump header and path.
  obs::flight::ScopedRunLabel label(std::string(proto_name(opt.proto)) +
                                    ".seed" + std::to_string(opt.seed));
  obs::TraceRecorder rec;
  if (opt.tracing) obs::install(&rec);

  TortureResult out;
  {
    ClusterConfig cc;
    cc.fs.block_size = KiB(4);
    switch (opt.faults) {
      case TortureOptions::Faults::none:
        break;
      case TortureOptions::Faults::zero:
        cc.faults = fault::FaultPlan{};  // all probabilities zero
        break;
      case TortureOptions::Faults::adversarial:
        cc.faults = fault::FaultPlan::adversarial(opt.seed);
        break;
      case TortureOptions::Faults::brutal: {
        auto plan = fault::FaultPlan::adversarial(opt.seed);
        plan.gm.drop = 0.5;
        plan.eth.drop = 0.5;
        cc.faults = plan;
        break;
      }
    }
    // Recovery knobs, identical across fault modes so the zero-plan and
    // no-injector runs are comparable event-for-event.
    cc.rpc_retry.timeout = msec(2);
    cc.rpc_retry.max_attempts = 8;
    cc.rpc_retry.backoff = 2.0;
    cc.rpc_retry.max_timeout = msec(50);
    cc.nic.op_timeout = msec(50);
    if (opt.faults == TortureOptions::Faults::brutal) {
      cc.rpc_retry.max_attempts = 3;  // let the give-up paths fire
    }

    Cluster cluster(cc);
    fault::FaultInjector* inj = cluster.fault_injector();
    if (inj) inj->set_armed(false);  // setup runs fault-free

    nas::dafs::DafsClientConfig dafs_cfg;
    dafs_cfg.retry = cc.rpc_retry;
    dafs_cfg.max_io_attempts =
        opt.faults == TortureOptions::Faults::brutal ? 2 : 6;
    std::unique_ptr<core::FileClient> client;
    switch (opt.proto) {
      case Proto::nfs:
        cluster.start_nfs();
        client = cluster.make_nfs_client(0, KiB(32));
        break;
      case Proto::prepost:
        cluster.start_nfs();
        client = cluster.make_prepost_client(0, KiB(32));
        break;
      case Proto::hybrid:
        cluster.start_nfs();
        client = cluster.make_hybrid_client(0, KiB(32));
        break;
      case Proto::dafs:
        cluster.start_dafs();
        client = cluster.make_dafs_client(0, dafs_cfg);
        break;
      case Proto::odafs:
      case Proto::odafs_put:
      case Proto::odafs_wb:
      case Proto::odafs_policy: {
        nas::dafs::DafsServerConfig scfg;
        scfg.piggyback_refs = true;
        if (opt.proto != Proto::odafs) {
          scfg.writable_refs = true;
          scfg.coherence = true;
        }
        cluster.start_dafs(scfg);
        nas::odafs::OdafsClientConfig cfg;
        cfg.cache.block_size = KiB(4);
        cfg.cache.data_blocks = 24;
        cfg.cache.max_headers = 1 << 14;
        cfg.dafs = dafs_cfg;
        cfg.max_fetch_attempts =
            opt.faults == TortureOptions::Faults::brutal ? 2 : 4;
        if (opt.proto == Proto::odafs_put) {
          cfg.write_policy = nas::odafs::WritePolicy::put_through;
        } else if (opt.proto == Proto::odafs_wb) {
          cfg.write_policy = nas::odafs::WritePolicy::write_back;
        } else if (opt.proto == Proto::odafs_policy) {
          // Every arm unlocked under fire: the engine may flip between
          // RPC, put and write-back mid-run while the ARC directory churns
          // references; integrity and bounded retries must hold anyway.
          cfg.cache.ref_policy = "arc";
          cfg.write_policy = nas::odafs::WritePolicy::put_through;
          cfg.policy.enabled = true;
          cfg.policy.allow_write_back = true;
          cfg.policy.explore_every = 8;  // faults per-arm stay observed
        }
        client = cluster.make_odafs_client(0, cfg);
        break;
      }
    }

    // Timeseries: inert unless the calling thread installed a sink
    // (TimeseriesDoesNotPerturbTheRun does); then this run becomes one
    // windowed document under the same (proto, seed) label as the flight
    // recorder's. Declared after the cluster so the trailing gauge sample
    // runs before teardown.
    obs::ts::RunScope ts_run(cluster.engine(),
                             std::string(proto_name(opt.proto)) + ".seed" +
                                 std::to_string(opt.seed));
    if (ts_run.active()) cluster.export_metrics(ts_run.registry());

    const Bytes fsize = KiB(160);
    std::vector<std::byte> model = file_pattern(fsize);
    const Bytes max_len = KiB(12);

    cluster.engine().spawn([](Cluster& cluster, core::FileClient& client,
                              fault::FaultInjector* inj,
                              const TortureOptions& opt, Bytes fsize,
                              Bytes max_len, std::vector<std::byte>& model,
                              TortureResult& out) -> sim::Task<void> {
      auto& h = cluster.client(0);
      co_await cluster.make_file("t", fsize, /*warm=*/true);
      auto open = co_await client.open("t");
      ORDMA_CHECK(open.ok());
      const std::uint64_t fh = open.value().fh;
      const mem::Vaddr rbuf = h.map_new(h.user_as(), max_len);
      const mem::Vaddr wbuf = h.map_new(h.user_as(), max_len);

      if (inj) inj->set_armed(true);  // workload runs under fire
      Rng rng(0x517cc1b727220a95ull ^ opt.seed);

      for (unsigned i = 0; i < opt.ops; ++i) {
        const bool is_write = rng.below(4) == 3;  // 25% writes
        Bytes off = rng.below(fsize);
        Bytes len = 1 + rng.below(max_len - 1);
        if (off + len > fsize) len = fsize - off;  // keep the size fixed

        if (is_write) {
          std::vector<std::byte> data(len);
          std::uint64_t x = rng.below(~std::uint64_t{0});
          for (Bytes j = 0; j < len; ++j) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            data[j] = static_cast<std::byte>(x >> 56);
          }
          ORDMA_CHECK(h.user_as().write(wbuf, data).ok());
          auto n = co_await client.pwrite(fh, off, wbuf, len);
          ++out.completions;
          fold(out.hash, i);
          fold(out.hash, 1);
          fold(out.hash, off);
          fold(out.hash, len);
          fold(out.hash, static_cast<std::uint64_t>(n.code()));
          fold(out.hash, n.ok() ? n.value() : 0);
          if (n.ok() && n.value() == len) {
            std::copy(data.begin(), data.end(), model.begin() + off);
          } else {
            ++out.failures;
          }
        } else {
          auto n = co_await client.pread(fh, off, rbuf, len);
          ++out.completions;
          fold(out.hash, i);
          fold(out.hash, 0);
          fold(out.hash, off);
          fold(out.hash, len);
          fold(out.hash, static_cast<std::uint64_t>(n.code()));
          fold(out.hash, n.ok() ? n.value() : 0);
          if (!n.ok()) {
            ++out.failures;
          } else {
            std::vector<std::byte> got(n.value());
            ORDMA_CHECK(h.user_as().read(rbuf, got).ok());
            fold(out.hash, rpc::checksum32(got));
            if (opt.verify &&
                (n.value() != len ||
                 !std::equal(got.begin(), got.end(), model.begin() + off))) {
              ++out.integrity_violations;
            }
          }
        }
        fold(out.hash, static_cast<std::uint64_t>(
                           cluster.engine().now().ns));
      }

      // Flush while still under fire (write-back buffers; a no-op for
      // write-through protocols). A failed flush counts as a failed op.
      {
        auto st = co_await client.sync();
        fold(out.hash, static_cast<std::uint64_t>(st.code()));
        if (!st.ok()) ++out.failures;
      }

      // Final sweep with faults off: the file must match the model exactly
      // (catches damage that in-flight verification couldn't see, e.g. a
      // write torn server-side).
      if (inj) inj->set_armed(false);
      if (opt.verify) {
        for (Bytes off = 0; off < fsize; off += max_len) {
          const Bytes len = std::min<Bytes>(max_len, fsize - off);
          auto n = co_await client.pread(fh, off, rbuf, len);
          if (!n.ok() || n.value() != len) {
            ++out.integrity_violations;
            continue;
          }
          std::vector<std::byte> got(len);
          ORDMA_CHECK(h.user_as().read(rbuf, got).ok());
          fold(out.hash, rpc::checksum32(got));
          if (!std::equal(got.begin(), got.end(), model.begin() + off)) {
            ++out.integrity_violations;
          }
        }
      }
      fold(out.hash, static_cast<std::uint64_t>(cluster.engine().now().ns));
      out.completed = true;
    }(cluster, *client, inj, opt, fsize, max_len, model, out));

    cluster.engine().run();
    if (inj) {
      out.injected = inj->frames_dropped() + inj->frames_corrupt_dropped() +
                     inj->frames_corrupted() + inj->frames_duplicated() +
                     inj->frames_delayed() + inj->doorbell_stalls() +
                     inj->cap_revokes() + inj->tlb_invalidates() +
                     inj->disk_errors() + inj->disk_spikes();
    }
    if (!out.completed || out.completions != opt.ops ||
        out.integrity_violations > 0 || out.failures > 0) {
      out.flight_dump = obs::flight::dump_all_string("torture failure");
    }
  }

  if (opt.tracing) { EXPECT_GT(rec.event_count(), 0u); }
  return out;  // `rec` uninstalls itself on destruction
}

unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return static_cast<unsigned>(std::strtoul(v, nullptr, 10));
}

void report_failure(Proto proto, std::uint64_t seed,
                    const std::string& flight_dump = {}) {
  std::string dump_path;
  if (const char* path = std::getenv("TORTURE_FAIL_FILE"); path && *path) {
    std::ofstream f(path, std::ios::app);
    f << proto_name(proto) << ' ' << seed << '\n';
    if (!flight_dump.empty()) {
      // The postmortem goes next to the fail file, one per failing run, so
      // CI can upload the whole directory as a single artifact.
      dump_path = std::string(path) + ".flight." + proto_name(proto) + "." +
                  std::to_string(seed) + ".txt";
      std::ofstream d(dump_path);
      d << flight_dump;
    }
  }
  ADD_FAILURE() << "torture run failed for proto=" << proto_name(proto)
                << " seed=" << seed << "\nreproduce with: TORTURE_SEED="
                << seed << " ./torture_tests --gtest_filter='Torture.Seed*'"
                << (dump_path.empty()
                        ? ""
                        : "\nflight-recorder postmortem: " + dump_path);
}

constexpr Proto kAllProtos[] = {Proto::nfs,       Proto::prepost,
                                Proto::hybrid,    Proto::dafs,
                                Proto::odafs,     Proto::odafs_put,
                                Proto::odafs_wb,  Proto::odafs_policy};

// --- the seed matrix --------------------------------------------------------

TEST(Torture, SeedMatrixSurvivesAdversarialPlan) {
  std::vector<std::uint64_t> seeds;
  if (const char* one = std::getenv("TORTURE_SEED"); one && *one) {
    seeds.push_back(std::strtoull(one, nullptr, 10));
  } else {
    const unsigned n = env_unsigned("TORTURE_SEEDS", 6);
    for (std::uint64_t s = 1; s <= n; ++s) seeds.push_back(s);
  }

  // Flatten the (proto × seed) matrix into independent jobs and fan them
  // over the experiment runner. Workers only produce TortureResults; all
  // gtest assertions and failure reporting stay on this thread.
  struct Job {
    Proto proto;
    std::uint64_t seed;
  };
  std::vector<Job> matrix;
  for (const Proto proto : kAllProtos) {
    for (const std::uint64_t seed : seeds) matrix.push_back({proto, seed});
  }
  run::ParallelRunner runner(run::env_jobs_named("TORTURE_JOBS"));
  auto results = runner.map(matrix.size(), [&matrix](std::size_t i) {
    // Per-trial arena, reset and reused between a worker's trials — same
    // discipline as bench::sweep cells.
    mem::ScopedSimArena arena;
    TortureOptions opt;
    opt.proto = matrix[i].proto;
    opt.seed = matrix[i].seed;
    return run_torture(opt);
  });

  std::size_t i = 0;
  for (const Proto proto : kAllProtos) {
    std::uint64_t injected = 0;
    for (const std::uint64_t seed : seeds) {
      const TortureResult& r = results[i++];
      const TortureOptions opt;  // for the op count only
      const bool ok = r.completed && r.completions == opt.ops &&
                      r.failures == 0 && r.integrity_violations == 0;
      if (!ok) {
        report_failure(proto, seed, r.flight_dump);
        EXPECT_TRUE(r.completed) << "lost completion (driver hung)";
        EXPECT_EQ(r.completions, opt.ops);
        EXPECT_EQ(r.failures, 0u);
        EXPECT_EQ(r.integrity_violations, 0u);
      }
      injected += r.injected;
    }
    // Across the matrix the plan must actually have been firing faults —
    // otherwise these runs prove nothing about the recovery paths.
    EXPECT_GT(injected, 0u) << proto_name(proto);
  }
}

// --- determinism ------------------------------------------------------------

TEST(Torture, SameSeedSameHash) {
  for (const Proto proto : kAllProtos) {
    TortureOptions opt;
    opt.proto = proto;
    opt.seed = 5;
    const TortureResult a = run_torture(opt);
    const TortureResult b = run_torture(opt);
    EXPECT_TRUE(a.completed && b.completed) << proto_name(proto);
    EXPECT_EQ(a.hash, b.hash) << proto_name(proto);
    EXPECT_EQ(a.injected, b.injected) << proto_name(proto);
  }
}

TEST(Torture, TracingDoesNotPerturbTheRun) {
  for (const Proto proto : kAllProtos) {
    TortureOptions opt;
    opt.proto = proto;
    opt.seed = 7;
    const TortureResult plain = run_torture(opt);
    opt.tracing = true;
    const TortureResult traced = run_torture(opt);
    EXPECT_TRUE(plain.completed && traced.completed) << proto_name(proto);
    EXPECT_EQ(plain.hash, traced.hash) << proto_name(proto);
  }
}

TEST(Torture, FlightRecorderDoesNotPerturbTheRun) {
  // The recorder is an observer: golden hashes must be identical with it on
  // (the default) and off, under the full adversarial plan. It must also
  // draw no randomness — `injected` counts every RNG-driven decision that
  // fired and must match exactly.
  ASSERT_TRUE(obs::flight::enabled());
  for (const Proto proto : kAllProtos) {
    TortureOptions opt;
    opt.proto = proto;
    opt.seed = 9;
    const TortureResult on = run_torture(opt);
    obs::flight::set_enabled(false);
    const TortureResult off = run_torture(opt);
    obs::flight::set_enabled(true);
    EXPECT_TRUE(on.completed && off.completed) << proto_name(proto);
    EXPECT_EQ(on.hash, off.hash) << proto_name(proto);
    EXPECT_EQ(on.injected, off.injected) << proto_name(proto);
  }
}

TEST(Torture, TimeseriesDoesNotPerturbTheRun) {
  // The windowed sampler rides the engine's time-advance hook: it adds no
  // events, draws no randomness, and allocates only at series creation —
  // so the golden hash and the injector's fired-fault count must be
  // identical with a sink installed and without, under the full
  // adversarial plan.
  for (const Proto proto : kAllProtos) {
    TortureOptions opt;
    opt.proto = proto;
    opt.seed = 13;
    const TortureResult plain = run_torture(opt);

    obs::SinkSet sinks;
    sinks.ts_config.interval = usec(100);
    sinks.timeseries.emplace(obs::Sink::Layout::array);
    obs::install_sinks(&sinks);
    const TortureResult sampled = run_torture(opt);
    obs::install_sinks(nullptr);

    EXPECT_TRUE(plain.completed && sampled.completed) << proto_name(proto);
    EXPECT_EQ(plain.hash, sampled.hash) << proto_name(proto);
    EXPECT_EQ(plain.injected, sampled.injected) << proto_name(proto);
    ASSERT_EQ(sinks.timeseries->runs(), 1u) << proto_name(proto);
    EXPECT_NE(sinks.timeseries->doc(0).find(
                  "\"schema\":\"ordma.timeseries.v1\""),
              std::string::npos)
        << proto_name(proto);
  }
}

TEST(Torture, ZeroPlanIsIdenticalToNoInjector) {
  for (const Proto proto : kAllProtos) {
    TortureOptions opt;
    opt.proto = proto;
    opt.seed = 3;
    opt.faults = TortureOptions::Faults::none;
    const TortureResult none = run_torture(opt);
    opt.faults = TortureOptions::Faults::zero;
    const TortureResult zero = run_torture(opt);
    EXPECT_TRUE(none.completed && zero.completed) << proto_name(proto);
    EXPECT_EQ(none.failures, 0u) << proto_name(proto);
    EXPECT_EQ(none.hash, zero.hash) << proto_name(proto);
    EXPECT_EQ(zero.injected, 0u) << proto_name(proto);
  }
}

// --- pinned golden hashes ---------------------------------------------------

// Every other hash check in this file is relative (the same seed twice, an
// observer on and off), so a change to what a recovery path does under
// faults would pass them all. These absolute event-stream hashes pin it:
// adversarial seeds 1-8 and brutal seeds 11-14 for each protocol but
// hybrid (a revoked transfer first reaches a re-issue loop at adversarial
// seed 5, so fewer seeds would leave part of the retryable set unpinned).
using Faults = TortureOptions::Faults;
struct GoldenRun {
  Proto proto;
  Faults faults;
  std::uint64_t seed;
  std::uint64_t hash;
};
constexpr GoldenRun kGoldenRuns[] = {
    {Proto::nfs, Faults::adversarial, 1, 0xefa333acb793ae5bull},
    {Proto::nfs, Faults::adversarial, 2, 0x4df08629382d5c0aull},
    {Proto::nfs, Faults::adversarial, 3, 0xa71ebe3ba0af647eull},
    {Proto::nfs, Faults::adversarial, 4, 0xb754ffacc93ee734ull},
    {Proto::nfs, Faults::adversarial, 5, 0xdf0d059b88e78c6cull},
    {Proto::nfs, Faults::adversarial, 6, 0xccb3ac7b3be9e03cull},
    {Proto::nfs, Faults::adversarial, 7, 0x32563da4e1627cebull},
    {Proto::nfs, Faults::adversarial, 8, 0xb7a707dd486eb320ull},
    {Proto::nfs, Faults::brutal, 11, 0x6b88e0855692e39bull},
    {Proto::nfs, Faults::brutal, 12, 0xa9381c3d04fb6233ull},
    {Proto::nfs, Faults::brutal, 13, 0xf0fdae8d84204501ull},
    {Proto::nfs, Faults::brutal, 14, 0x02214a3303d645ceull},
    {Proto::prepost, Faults::adversarial, 1, 0x46693a07ed2da25aull},
    {Proto::prepost, Faults::adversarial, 2, 0xa9bed7f99eefbe81ull},
    {Proto::prepost, Faults::adversarial, 3, 0x04aae86f7b0aae92ull},
    {Proto::prepost, Faults::adversarial, 4, 0xe97bf9626dc6f8e6ull},
    {Proto::prepost, Faults::adversarial, 5, 0x2920e322324add94ull},
    {Proto::prepost, Faults::adversarial, 6, 0xb687d631baa79962ull},
    {Proto::prepost, Faults::adversarial, 7, 0xf495afdb28aef12eull},
    {Proto::prepost, Faults::adversarial, 8, 0xecc85225b2bf19afull},
    {Proto::prepost, Faults::brutal, 11, 0x62bd4f3c2022db31ull},
    {Proto::prepost, Faults::brutal, 12, 0x24f5a993053f5588ull},
    {Proto::prepost, Faults::brutal, 13, 0x1a7403f5f65cca55ull},
    {Proto::prepost, Faults::brutal, 14, 0xd8c2f273c292280cull},
    {Proto::dafs, Faults::adversarial, 1, 0x19529104375c4de7ull},
    {Proto::dafs, Faults::adversarial, 2, 0xbba6a989458ab2f3ull},
    {Proto::dafs, Faults::adversarial, 3, 0x70aaeda56d00c04bull},
    {Proto::dafs, Faults::adversarial, 4, 0x12da7d222686fe4bull},
    {Proto::dafs, Faults::adversarial, 5, 0x9c63a6ea72e89674ull},
    {Proto::dafs, Faults::adversarial, 6, 0xd0fb5fc873ed98aaull},
    {Proto::dafs, Faults::adversarial, 7, 0x020caf5f37046122ull},
    {Proto::dafs, Faults::adversarial, 8, 0x4070d44e8c7ad5b7ull},
    {Proto::dafs, Faults::brutal, 11, 0x2847621f06d8c115ull},
    {Proto::dafs, Faults::brutal, 12, 0x5be43662e419dc65ull},
    {Proto::dafs, Faults::brutal, 13, 0xefc7a728253e9d03ull},
    {Proto::dafs, Faults::brutal, 14, 0xad898576d51dfad1ull},
    {Proto::odafs, Faults::adversarial, 1, 0x333aefe1df6feea0ull},
    {Proto::odafs, Faults::adversarial, 2, 0xb77d4834ce6a39d9ull},
    {Proto::odafs, Faults::adversarial, 3, 0x7ad22f5ed9111ca7ull},
    {Proto::odafs, Faults::adversarial, 4, 0x5e810dbde045389full},
    {Proto::odafs, Faults::adversarial, 5, 0xded458adb5ffd3e4ull},
    {Proto::odafs, Faults::adversarial, 6, 0x4f7c7fe43caf6bdcull},
    {Proto::odafs, Faults::adversarial, 7, 0x0b209e17b1d41259ull},
    {Proto::odafs, Faults::adversarial, 8, 0xba30bfe9eec0a671ull},
    {Proto::odafs, Faults::brutal, 11, 0x4a2a3452873eb697ull},
    {Proto::odafs, Faults::brutal, 12, 0xb7d3e00f2600986cull},
    {Proto::odafs, Faults::brutal, 13, 0x759423ed44d1b76bull},
    {Proto::odafs, Faults::brutal, 14, 0xdd83e23e4f5e5318ull},
    {Proto::odafs_put, Faults::adversarial, 1, 0xe133adb7dab80c08ull},
    {Proto::odafs_put, Faults::adversarial, 2, 0xb23c9004914a3688ull},
    {Proto::odafs_put, Faults::adversarial, 3, 0x237cb5412b691afbull},
    {Proto::odafs_put, Faults::adversarial, 4, 0xa8d717dfd8d3dcbfull},
    {Proto::odafs_put, Faults::adversarial, 5, 0x640ef1df44595ed3ull},
    {Proto::odafs_put, Faults::adversarial, 6, 0x0ca68c17868008bfull},
    {Proto::odafs_put, Faults::adversarial, 7, 0x33ab462dc8481155ull},
    {Proto::odafs_put, Faults::adversarial, 8, 0xc80845de3cbbcd0eull},
    {Proto::odafs_put, Faults::brutal, 11, 0x45de156631e99a8cull},
    {Proto::odafs_put, Faults::brutal, 12, 0xed78b2d0fb974b38ull},
    {Proto::odafs_put, Faults::brutal, 13, 0xd68919e19f1eaba0ull},
    {Proto::odafs_put, Faults::brutal, 14, 0x48f34b6ae75febe1ull},
    {Proto::odafs_wb, Faults::adversarial, 1, 0xa6143999c39ed194ull},
    {Proto::odafs_wb, Faults::adversarial, 2, 0xb928509f610fafb4ull},
    {Proto::odafs_wb, Faults::adversarial, 3, 0x17e5321fb91f4374ull},
    {Proto::odafs_wb, Faults::adversarial, 4, 0x772e769fb95e4d79ull},
    {Proto::odafs_wb, Faults::adversarial, 5, 0xd00118db525bda19ull},
    {Proto::odafs_wb, Faults::adversarial, 6, 0x912c4975b6522929ull},
    {Proto::odafs_wb, Faults::adversarial, 7, 0x5c317e31c5b6cd9aull},
    {Proto::odafs_wb, Faults::adversarial, 8, 0x66e0e5374ab148ebull},
    {Proto::odafs_wb, Faults::brutal, 11, 0x3dcd0d9788510b5aull},
    {Proto::odafs_wb, Faults::brutal, 12, 0x40c5ef5a2cb9102dull},
    {Proto::odafs_wb, Faults::brutal, 13, 0x0a74b3ea8ab8e911ull},
    {Proto::odafs_wb, Faults::brutal, 14, 0x5f2f4440022eaf6cull},
    {Proto::odafs_policy, Faults::adversarial, 1, 0x0dfd2a24043dd767ull},
    {Proto::odafs_policy, Faults::adversarial, 2, 0xf46a116aa05049c0ull},
    {Proto::odafs_policy, Faults::adversarial, 3, 0x3f1d13e6519833c5ull},
    {Proto::odafs_policy, Faults::adversarial, 4, 0xa278b1817cc46008ull},
    {Proto::odafs_policy, Faults::adversarial, 5, 0x40bcf89070ea0443ull},
    {Proto::odafs_policy, Faults::adversarial, 6, 0x1787966990a6f584ull},
    {Proto::odafs_policy, Faults::adversarial, 7, 0x24ad058903fb11d5ull},
    {Proto::odafs_policy, Faults::adversarial, 8, 0x4fe8cf507fc14f77ull},
    {Proto::odafs_policy, Faults::brutal, 11, 0x59bfb256e2ebcb1cull},
    {Proto::odafs_policy, Faults::brutal, 12, 0x2cfc0d8f48071b0full},
    {Proto::odafs_policy, Faults::brutal, 13, 0x37baacf251b0cb29ull},
    {Proto::odafs_policy, Faults::brutal, 14, 0x6a5a16c4afe7b86dull},
};

TEST(Torture, GoldenHashesArePinned) {
  run::ParallelRunner runner(run::env_jobs_named("TORTURE_JOBS"));
  auto results = runner.map(std::size(kGoldenRuns), [](std::size_t i) {
    mem::ScopedSimArena arena;
    TortureOptions opt;
    opt.proto = kGoldenRuns[i].proto;
    opt.faults = kGoldenRuns[i].faults;
    opt.seed = kGoldenRuns[i].seed;
    opt.verify = opt.faults != Faults::brutal;
    return run_torture(opt);
  });
  for (std::size_t i = 0; i < std::size(kGoldenRuns); ++i) {
    const GoldenRun& g = kGoldenRuns[i];
    EXPECT_TRUE(results[i].completed) << proto_name(g.proto);
    EXPECT_EQ(results[i].hash, g.hash)
        << proto_name(g.proto)
        << (g.faults == Faults::brutal ? " brutal" : " adversarial")
        << " seed " << g.seed << ": got 0x" << std::hex << results[i].hash;
  }
}

// --- bounded retries --------------------------------------------------------

TEST(Torture, BrutalPlanSurfacesCleanErrorsWithoutHanging) {
  for (const Proto proto : kAllProtos) {
    TortureOptions opt;
    opt.proto = proto;
    opt.seed = 11;
    opt.faults = TortureOptions::Faults::brutal;
    opt.verify = false;  // failed writes make the reference model unknowable
    TortureResult r = run_torture(opt);
    EXPECT_TRUE(r.completed)
        << proto_name(proto) << ": an op hung instead of giving up";
    EXPECT_EQ(r.completions, opt.ops) << proto_name(proto);
    EXPECT_GT(r.failures, 0u)
        << proto_name(proto)
        << ": a 50% drop rate with weak retries must defeat some ops";
    // Giving up is still deterministic: same seed, same outcome.
    EXPECT_EQ(run_torture(opt).hash, r.hash) << proto_name(proto);
  }
}

}  // namespace
}  // namespace ordma
