// Observability subsystem tests: trace recorder track/lane behavior and
// Chrome JSON export, metrics registry snapshots, the attribution sweep,
// and — the property everything else depends on — that installing a
// recorder does not perturb the simulation by a single nanosecond.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ordma {
namespace {

template <typename F>
void drive(sim::Engine& eng, F&& body) {
  bool done = false;
  eng.spawn([](F body, bool& done) -> sim::Task<void> {
    co_await body();
    done = true;
  }(std::forward<F>(body), done));
  eng.run();
  ASSERT_TRUE(done) << "workload deadlocked";
}

// --- recorder ---------------------------------------------------------------

TEST(TraceRecorder, TrackInterning) {
  obs::TraceRecorder rec;
  const auto a = rec.track("server", "cpu");
  const auto b = rec.track("server", "nic.fw");
  const auto c = rec.track("client0", "cpu");
  EXPECT_EQ(rec.track("server", "cpu"), a);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(rec.track_process(a), "server");
  EXPECT_EQ(rec.track_component(b), "nic.fw");
  EXPECT_EQ(rec.track_count(), 3u);
}

TEST(TraceRecorder, OverflowLanesKeepSlicesDisjoint) {
  obs::TraceRecorder rec;
  const auto t = rec.track("host", "cpu");
  using K = obs::TraceRecorder::Kind;
  // Nondecreasing end order (the recorder's contract). The second span
  // overlaps the first → lane "cpu~2"; the third is disjoint → lane 1.
  rec.record(K::span, t, 1, "io/a", 0, 100);
  rec.record(K::span, t, 2, "io/b", 50, 150);
  rec.record(K::span, t, 3, "io/c", 200, 300);

  std::vector<obs::TraceRecorder::Event> evs;
  rec.for_each_event([&](const auto& e) { evs.push_back(e); });
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].track, t);
  EXPECT_NE(evs[1].track, t);
  EXPECT_EQ(rec.track_component(evs[1].track), "cpu~2");
  EXPECT_EQ(evs[2].track, t);

  // Per lane, slices must be disjoint (Chrome rendering requirement).
  std::map<obs::TrackId, std::int64_t> last_end;
  rec.for_each_event([&](const auto& e) {
    auto it = last_end.find(e.track);
    if (it != last_end.end()) { EXPECT_GE(e.begin_ns, it->second); }
    last_end[e.track] = e.end_ns;
  });
}

TEST(TraceRecorder, ClearRetainsTracksDropsEvents) {
  obs::TraceRecorder rec;
  const auto t = rec.track("host", "cpu");
  rec.record(obs::TraceRecorder::Kind::span, t, 1, "io/a", 0, 10);
  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_EQ(rec.track("host", "cpu"), t);
  // last_end was reset: a span starting at 0 stays on the base lane.
  rec.record(obs::TraceRecorder::Kind::span, t, 1, "io/a", 0, 10);
  rec.for_each_event([&](const auto& e) { EXPECT_EQ(e.track, t); });
}

TEST(TraceRecorder, ChromeJsonShape) {
  obs::TraceRecorder rec;
  const auto cpu = rec.track("client0", "cpu");
  const auto fw = rec.track("server", "nic.fw");
  using K = obs::TraceRecorder::Kind;
  const obs::OpId op = rec.new_op();
  rec.record(K::flow, cpu, op, "send", 10, 10);
  rec.record(K::span, cpu, op, "io/syscall", 0, 20);
  rec.record(K::flow, fw, op, "recv", 30, 30);
  rec.record(K::span, fw, op, "nic/rx_frag", 30, 40);
  rec.record(K::root, cpu, op, "op/pread", 0, 50);

  std::ostringstream os;
  rec.write_chrome_json(os);
  const std::string j = os.str();
  EXPECT_NE(j.find(R"("ph":"M","name":"process_name")"), std::string::npos);
  EXPECT_NE(j.find(R"("name":"client0")"), std::string::npos);
  EXPECT_NE(j.find(R"("name":"nic.fw")"), std::string::npos);
  EXPECT_NE(j.find(R"("ph":"X","name":"op/pread")"), std::string::npos);
  // The two flow points become an s → f arrow keyed by the op id.
  EXPECT_NE(j.find(R"("ph":"s","cat":"flow")"), std::string::npos);
  EXPECT_NE(j.find(R"("ph":"f","cat":"flow")"), std::string::npos);
  EXPECT_EQ(j.back(), '\n');
  EXPECT_EQ(j[j.size() - 2], ']');
}

TEST(TraceRecorder, SinglePointFlowsAreDropped) {
  obs::TraceRecorder rec;
  const auto t = rec.track("h", "cpu");
  rec.record(obs::TraceRecorder::Kind::flow, t, 7, "lonely", 5, 5);
  std::ostringstream os;
  rec.write_chrome_json(os);
  EXPECT_EQ(os.str().find(R"("cat":"flow")"), std::string::npos);
}

// --- helpers are a single branch when disabled ------------------------------

TEST(TraceHelpers, NoopWhenDisabled) {
  ASSERT_FALSE(obs::enabled());
  EXPECT_EQ(obs::new_op(), 0u);  // untraced ops have no identity
  obs::Track trk("host", "cpu");
  obs::span(trk, 1, "io/x", SimTime{0}, SimTime{10});  // must not crash
}

TEST(TraceHelpers, TrackCacheSurvivesReinstall) {
  obs::Track trk("host", "cpu");
  auto rec1 = std::make_unique<obs::TraceRecorder>();
  obs::install(rec1.get());
  obs::span(trk, 1, "io/x", SimTime{0}, SimTime{10});
  EXPECT_EQ(rec1->event_count(), 1u);
  auto rec2 = std::make_unique<obs::TraceRecorder>();
  obs::install(rec2.get());  // epoch bump → cache re-resolves
  obs::span(trk, 1, "io/y", SimTime{10}, SimTime{20});
  EXPECT_EQ(rec2->event_count(), 1u);
  EXPECT_EQ(rec1->event_count(), 1u);
  rec2.reset();  // uninstalls itself
  EXPECT_FALSE(obs::enabled());
}

// --- metrics registry -------------------------------------------------------

TEST(Metrics, RegistrySnapshotNestsPaths) {
  obs::MetricsRegistry reg;
  reg.counter("server/nic/tpt_miss").inc(3);
  reg.gauge("server/cpu/busy_us", [] { return 12.5; });
  reg.histogram("client0/pread_us").add(usec(3));
  EXPECT_EQ(reg.size(), 3u);
  // Entry references are stable.
  reg.counter("server/nic/tpt_miss").inc();
  std::ostringstream os;
  reg.write_json(os);
  const std::string j = os.str();
  EXPECT_NE(j.find(R"("server":{"cpu":{"busy_us":12.5},"nic":{"tpt_miss":4}})"),
            std::string::npos);
  EXPECT_NE(j.find(R"("client0":{"pread_us":{"count":1)"), std::string::npos);
  EXPECT_NE(j.find(R"("buckets":[{"le_us":4,"n":1}])"), std::string::npos);
}

TEST(Metrics, FaultAndRecoveryCountersAppearInSnapshot) {
  // A faulted cluster must export its injector and recovery counters so a
  // torture run's behaviour is inspectable from the metrics snapshot alone.
  core::ClusterConfig cc;
  cc.faults = fault::FaultPlan::adversarial(42);
  cc.rpc_retry.timeout = msec(2);
  cc.rpc_retry.max_attempts = 8;
  core::Cluster c(cc);
  ASSERT_NE(c.fault_injector(), nullptr);
  c.fault_injector()->set_armed(false);  // setup runs fault-free
  c.start_nfs();
  auto client = c.make_nfs_client(0, KiB(32));
  drive(c.engine(), [&]() -> sim::Task<void> {
    co_await c.make_file("f", Bytes{KiB(128)}, /*warm=*/true);
    auto open = co_await client->open("f");
    ORDMA_CHECK(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(32));
    c.fault_injector()->set_armed(true);
    for (int i = 0; i < 64; ++i) {
      auto r = co_await client->pread(
          open.value().fh, (static_cast<Bytes>(i) * KiB(32)) % KiB(128), buf,
          KiB(32));
      ORDMA_CHECK(r.ok());
    }
  });

  obs::MetricsRegistry reg;
  c.export_metrics(reg);
  std::ostringstream os;
  reg.write_json(os);
  const std::string j = os.str();
  for (const char* key :
       {"frames_dropped", "frames_corrupted", "frames_duplicated",
        "frames_delayed", "doorbell_stalls", "cap_revokes", "tlb_invalidates",
        "disk_errors", "dup_replays", "dup_drops", "cksum_drops",
        "ordma_timeouts"}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing metric: " << key;
  }
  // The adversarial plan over 64 reads must have fired at least once (the
  // seed is fixed, so this is deterministic), and the gauges must reflect
  // it — not just exist as zero.
  const fault::FaultInjector& inj = *c.fault_injector();
  EXPECT_GT(inj.frames_dropped() + inj.frames_corrupt_dropped() +
                inj.frames_corrupted() + inj.frames_duplicated() +
                inj.frames_delayed() + inj.doorbell_stalls(),
            0u);
}

// --- attribution ------------------------------------------------------------

TEST(Attribution, CategorizeByPrefix) {
  EXPECT_EQ(obs::categorize("byte/copy"), obs::Category::per_byte);
  EXPECT_EQ(obs::categorize("pkt/udp_tx"), obs::Category::per_packet);
  EXPECT_EQ(obs::categorize("io/syscall"), obs::Category::per_io);
  EXPECT_EQ(obs::categorize("nic/dma"), obs::Category::nic);
  EXPECT_EQ(obs::categorize("wire/tx"), obs::Category::wire);
  EXPECT_EQ(obs::categorize("disk/io"), obs::Category::disk);
  EXPECT_EQ(obs::categorize("op/pread"), obs::Category::other);
  EXPECT_EQ(obs::categorize("mystery"), obs::Category::other);
}

TEST(Attribution, SweepPartitionsRootExactly) {
  obs::TraceRecorder rec;
  const auto t = rec.track("h", "cpu");
  using K = obs::TraceRecorder::Kind;
  const obs::OpId op = 1;
  // Root [0, 1000]. Leaves (ns):
  //   io   [  0, 400]
  //   byte [100, 300]   — outranks io where they overlap
  //   wire [350, 600]
  //   disk [500, 700]   — outranks wire where they overlap
  // Expected: io [0,100)+[300,350) = 150; byte [100,300) = 200;
  // wire [350,500) = 150; disk [500,700) = 200; other [700,1000) = 300.
  rec.record(K::span, t, op, "byte/x", 100, 300);
  rec.record(K::span, t, op, "io/x", 0, 400);
  rec.record(K::span, t, op, "wire/x", 350, 600);
  rec.record(K::span, t, op, "disk/x", 500, 700);
  rec.record(K::root, t, op, "op/pread", 0, 1000);

  const auto result = obs::attribute(rec);
  ASSERT_EQ(result.size(), 1u);
  const obs::Breakdown& b = result.at(op);
  EXPECT_STREQ(b.root_name, "op/pread");
  EXPECT_DOUBLE_EQ(b[obs::Category::per_io], 0.150);
  EXPECT_DOUBLE_EQ(b[obs::Category::per_byte], 0.200);
  EXPECT_DOUBLE_EQ(b[obs::Category::wire], 0.150);
  EXPECT_DOUBLE_EQ(b[obs::Category::disk], 0.200);
  EXPECT_DOUBLE_EQ(b[obs::Category::other], 0.300);
  EXPECT_DOUBLE_EQ(b.sum_us(), b.total_us);
}

TEST(Attribution, AmbientSpansChargedToOverlappingOps) {
  obs::TraceRecorder rec;
  const auto t = rec.track("h", "cpu");
  using K = obs::TraceRecorder::Kind;
  // An op-0 interrupt inside op 1's envelope, another outside it.
  rec.record(K::span, t, 0, "pkt/interrupt", 100, 150);
  rec.record(K::root, t, 1, "op/pread", 0, 1000);
  rec.record(K::span, t, 0, "pkt/interrupt", 2000, 2050);

  const auto result = obs::attribute(rec);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result.at(1)[obs::Category::per_packet], 0.050);
  EXPECT_DOUBLE_EQ(result.at(1).sum_us(), result.at(1).total_us);
}

TEST(Attribution, LeavesClampedToRootWindow) {
  obs::TraceRecorder rec;
  const auto t = rec.track("h", "cpu");
  using K = obs::TraceRecorder::Kind;
  rec.record(K::span, t, 1, "io/x", 0, 500);  // extends past the root
  rec.record(K::root, t, 1, "op/pread", 100, 300);
  const auto result = obs::attribute(rec);
  EXPECT_DOUBLE_EQ(result.at(1)[obs::Category::per_io], 0.200);
  EXPECT_DOUBLE_EQ(result.at(1).sum_us(), 0.200);
}

// --- end-to-end: tracing must not perturb the simulation --------------------

// Run the same NFS read workload on a fresh cluster; returns the final
// simulated time. `rec` non-null → tracing enabled for the run.
std::int64_t run_nfs_reads(obs::TraceRecorder* rec, int reads = 8,
                           Bytes io = KiB(32)) {
  core::Cluster c;
  c.start_nfs();
  auto client = c.make_nfs_client(0);
  drive(c.engine(), [&]() -> sim::Task<void> {
    co_await c.make_file("f", Bytes{KiB(256)}, /*warm=*/true);
  });
  if (rec) obs::install(rec);
  std::int64_t end_ns = 0;
  drive(c.engine(), [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    ORDMA_CHECK(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), io);
    for (int i = 0; i < reads; ++i) {
      auto r = co_await client->pread(open.value().fh,
                                      (static_cast<Bytes>(i) * io) % KiB(256),
                                      buf, io);
      ORDMA_CHECK(r.ok() && r.value() == io);
    }
    end_ns = c.engine().now().ns;
  });
  if (rec) obs::install(static_cast<obs::TraceRecorder*>(nullptr));
  return end_ns;
}

TEST(ObsEndToEnd, TracingDoesNotChangeSimulatedTime) {
  const std::int64_t off = run_nfs_reads(nullptr);
  obs::TraceRecorder rec;
  const std::int64_t on = run_nfs_reads(&rec);
  EXPECT_EQ(on, off);
  EXPECT_GT(rec.event_count(), 0u);
}

TEST(ObsEndToEnd, PreadSpanTreesAreWellFormed) {
  obs::TraceRecorder rec;
  run_nfs_reads(&rec, /*reads=*/4);

  // One root per pread, plus the open's getattr-free ops (open uses lookup
  // RPCs without a FileClient root) — so exactly 4 op/pread roots.
  std::map<obs::OpId, const char*> roots;
  std::map<obs::OpId, std::pair<std::int64_t, std::int64_t>> windows;
  rec.for_each_event([&](const obs::TraceRecorder::Event& e) {
    if (e.kind == obs::TraceRecorder::Kind::root) {
      roots[e.op] = e.name;
      windows[e.op] = {e.begin_ns, e.end_ns};
    }
  });
  int preads = 0;
  for (const auto& [op, name] : roots) {
    if (std::string(name) == "op/pread") ++preads;
  }
  EXPECT_EQ(preads, 4);

  // Every traced leaf of a rooted op lies inside its root window.
  rec.for_each_event([&](const obs::TraceRecorder::Event& e) {
    if (e.kind != obs::TraceRecorder::Kind::span || e.op == 0) return;
    auto it = windows.find(e.op);
    if (it == windows.end()) return;
    EXPECT_GE(e.begin_ns, it->second.first);
    EXPECT_LE(e.end_ns, it->second.second);
  });

  // And the attribution of every pread is a full partition with real work
  // in the per-byte bucket (NFS stages copies) and on the wire.
  for (const auto& [op, b] : obs::attribute(rec)) {
    if (std::string(b.root_name) != "op/pread") continue;
    EXPECT_NEAR(b.sum_us(), b.total_us, 1e-9);
    EXPECT_GT(b[obs::Category::per_byte], 0.0);
    EXPECT_GT(b[obs::Category::wire], 0.0);
  }
}

}  // namespace
}  // namespace ordma
