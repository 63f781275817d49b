// Windowed time-series telemetry tests (obs/timeseries.h):
//
//   * MetricsRegistry::delta_snapshot — counter/cumulative-gauge deltas,
//     point gauges, per-bucket histogram deltas, and the partition property
//     for entries that appear mid-run;
//   * histogram_quantile_from_counts — nearest-rank pins and the finite
//     overflow clamp;
//   * the engine's periodic sampling hook — grid boundary semantics, the
//     fires-before-same-instant-events rule, and zero perturbation;
//   * TimeseriesSampler — window sums partition run totals exactly,
//     trailing partial windows, ring drop behavior, JSON/CSV rendering;
//   * summarize_phases — warmup/steady/saturation/low labeling on
//     synthetic series;
//   * a full-cluster run pinned bit-identical with sampling on and off.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/engine.h"

namespace ordma {
namespace {

using obs::MetricsRegistry;

// --- delta snapshots --------------------------------------------------------

TEST(MetricsDelta, CountersBecomeWindowDeltas) {
  MetricsRegistry reg;
  auto& ops = reg.counter("app/ops");
  MetricsRegistry::DeltaCursor cur;
  std::vector<MetricsRegistry::Delta> out;

  ops.inc(5);
  reg.delta_snapshot(cur, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(*out[0].path, "app/ops");
  EXPECT_EQ(out[0].kind, MetricsRegistry::Kind::counter);
  EXPECT_EQ(out[0].value, 5.0);

  ops.inc(3);
  reg.delta_snapshot(cur, out);
  EXPECT_EQ(out[0].value, 3.0);

  // Quiet window: the delta is zero, not a repeat of the total.
  reg.delta_snapshot(cur, out);
  EXPECT_EQ(out[0].value, 0.0);
}

TEST(MetricsDelta, CumulativeGaugesDifferencePointGaugesSample) {
  MetricsRegistry reg;
  double busy = 100.0;  // monotone total (e.g. cpu busy time)
  double depth = 7.0;   // instantaneous level (e.g. queue depth)
  reg.gauge("host/busy_us", [&busy] { return busy; }, /*cumulative=*/true);
  reg.gauge("host/queue", [&depth] { return depth; });
  MetricsRegistry::DeltaCursor cur;
  std::vector<MetricsRegistry::Delta> out;

  reg.delta_snapshot(cur, out);
  ASSERT_EQ(out.size(), 2u);  // path-sorted: busy_us, queue
  EXPECT_EQ(out[0].kind, MetricsRegistry::Kind::cumulative_gauge);
  EXPECT_EQ(out[0].value, 100.0);  // first window absorbs history
  EXPECT_EQ(out[1].kind, MetricsRegistry::Kind::gauge);
  EXPECT_EQ(out[1].value, 7.0);

  busy = 130.0;
  depth = 2.0;
  reg.delta_snapshot(cur, out);
  EXPECT_EQ(out[0].value, 30.0);  // differenced
  EXPECT_EQ(out[1].value, 2.0);   // point sample, not a delta
}

TEST(MetricsDelta, HistogramsDifferencePerBucket) {
  MetricsRegistry reg;
  auto& h = reg.histogram("op/lat_us");
  MetricsRegistry::DeltaCursor cur;
  std::vector<MetricsRegistry::Delta> out;

  h.add(usec(3));   // bucket [2,4)
  h.add(usec(3));
  h.add(usec(100));  // bucket [64,128)
  reg.delta_snapshot(cur, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, MetricsRegistry::Kind::histogram);
  EXPECT_EQ(out[0].value, 3.0);  // delta event count
  EXPECT_DOUBLE_EQ(out[0].h_sum_us, 106.0);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < LatencyHistogram::bucket_count(); ++b) {
    total += out[0].h_buckets[b];
  }
  EXPECT_EQ(total, 3u);

  // Next window only sees the new events.
  h.add(usec(5));  // bucket [4,8)
  reg.delta_snapshot(cur, out);
  EXPECT_EQ(out[0].value, 1.0);
  EXPECT_DOUBLE_EQ(out[0].h_sum_us, 5.0);
  EXPECT_EQ(out[0].h_buckets[3], 1u);  // [4,8) is bucket 3
  EXPECT_EQ(out[0].h_buckets[2], 0u);  // earlier window's events gone
}

TEST(MetricsDelta, EntryAddedMidRunDeliversFullTotalOnce) {
  // The partition property: however late an entry appears, the sum of its
  // window deltas equals its final total — the first delta after creation
  // is the entire total so far.
  MetricsRegistry reg;
  reg.counter("a").inc(2);
  MetricsRegistry::DeltaCursor cur;
  std::vector<MetricsRegistry::Delta> out;
  reg.delta_snapshot(cur, out);
  ASSERT_EQ(out.size(), 1u);

  reg.counter("b").inc(9);  // appears between snapshots
  reg.counter("a").inc(1);
  reg.delta_snapshot(cur, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(*out[0].path, "a");
  EXPECT_EQ(out[0].value, 1.0);
  EXPECT_EQ(*out[1].path, "b");
  EXPECT_EQ(out[1].value, 9.0);  // full total, exactly once

  reg.delta_snapshot(cur, out);
  EXPECT_EQ(out[1].value, 0.0);
}

// --- nearest-rank quantiles -------------------------------------------------

TEST(Timeseries, HistogramQuantileNearestRank) {
  constexpr std::size_t n = LatencyHistogram::bucket_count();
  std::uint64_t counts[n] = {};
  EXPECT_EQ(histogram_quantile_from_counts(counts, n, 0.5), 0.0);

  // 10 events in bucket 2 ([2,4) us), 10 in bucket 6 ([32,64) us): the
  // median sits in bucket 2 (rank 10 of 20), p99 in bucket 6.
  counts[2] = 10;
  counts[6] = 10;
  EXPECT_EQ(histogram_quantile_from_counts(counts, n, 0.5),
            LatencyHistogram::upper_edge_us(2));
  EXPECT_EQ(histogram_quantile_from_counts(counts, n, 0.99),
            LatencyHistogram::upper_edge_us(6));
  EXPECT_EQ(histogram_quantile_from_counts(counts, n, 0.0),
            LatencyHistogram::upper_edge_us(2));  // rank clamps to 1

  // Overflow bucket: no finite upper edge, so the quantile reports the
  // bucket's lower edge — finite and JSON-safe.
  std::uint64_t over[n] = {};
  over[n - 1] = 4;
  const double q = histogram_quantile_from_counts(over, n, 0.99);
  EXPECT_TRUE(std::isfinite(q));
  EXPECT_EQ(q, std::ldexp(1.0, static_cast<int>(n) - 2));
}

// --- flag parsing -----------------------------------------------------------

TEST(Timeseries, ParseDuration) {
  Duration d{};
  EXPECT_TRUE(obs::ts::parse_duration("500us", &d));
  EXPECT_EQ(d.ns, 500'000);
  EXPECT_TRUE(obs::ts::parse_duration("2ms", &d));
  EXPECT_EQ(d.ns, 2'000'000);
  EXPECT_TRUE(obs::ts::parse_duration("1s", &d));
  EXPECT_EQ(d.ns, 1'000'000'000);
  EXPECT_TRUE(obs::ts::parse_duration("250000ns", &d));
  EXPECT_EQ(d.ns, 250'000);
  EXPECT_TRUE(obs::ts::parse_duration("123", &d));  // bare ns
  EXPECT_EQ(d.ns, 123);
  EXPECT_FALSE(obs::ts::parse_duration("", &d));
  EXPECT_FALSE(obs::ts::parse_duration("ts.json", &d));
  EXPECT_FALSE(obs::ts::parse_duration("0ms", &d));
  EXPECT_FALSE(obs::ts::parse_duration("-5us", &d));
  EXPECT_FALSE(obs::ts::parse_duration("5min", &d));
  EXPECT_FALSE(obs::ts::parse_duration("10000000000s", &d));  // > int64 ns
  EXPECT_FALSE(obs::ts::parse_duration("99999999999999999999", &d));  // ERANGE
}

// --- engine sampling hook ---------------------------------------------------

struct HookLog {
  sim::Engine* eng;
  std::vector<std::int64_t> fired_at;
};

TEST(EngineSamplingHook, FiresAtEveryCrossedGridBoundary) {
  sim::Engine eng;
  HookLog log{&eng, {}};
  std::vector<std::int64_t> events_at;
  eng.schedule_fn(usec(25), [&] { events_at.push_back(eng.now().ns); });
  eng.schedule_fn(usec(75), [&] { events_at.push_back(eng.now().ns); });
  eng.set_sampling_hook(usec(10), &log, +[](void* ctx) {
    auto* l = static_cast<HookLog*>(ctx);
    l->fired_at.push_back(l->eng->now().ns);
  });
  eng.run();
  // One firing per boundary in (0, 75], each with now() set to the
  // boundary — including boundaries crossed in one jump (30..70 between
  // the two events).
  const std::vector<std::int64_t> want{10'000, 20'000, 30'000, 40'000,
                                       50'000, 60'000, 70'000};
  EXPECT_EQ(log.fired_at, want);
  EXPECT_EQ(events_at, (std::vector<std::int64_t>{25'000, 75'000}));
  eng.clear_sampling_hook();
}

TEST(EngineSamplingHook, BoundaryCoincidingWithEventFiresFirst) {
  // A boundary that lands exactly on an event instant closes its window
  // *before* the events at that instant run: those events belong to the
  // window the boundary opens.
  sim::Engine eng;
  std::vector<std::string> order;
  struct Ctx {
    std::vector<std::string>* order;
  } ctx{&order};
  eng.schedule_fn(usec(10), [&] { order.push_back("event@10us"); });
  eng.set_sampling_hook(usec(10), &ctx, +[](void* c) {
    static_cast<Ctx*>(c)->order->push_back("hook@boundary");
  });
  eng.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"hook@boundary", "event@10us"}));
  eng.clear_sampling_hook();
}

TEST(EngineSamplingHook, DoesNotPerturbEventOrderOrClock) {
  // The hook rides time advancement without touching the event queues: the
  // same workload must see identical timestamps and final clock with the
  // hook armed and without.
  auto run_workload = [](bool hooked) {
    sim::Engine eng;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 32; ++i) {
      eng.schedule_fn(usec(3 * i + 1), [&eng, &h] {
        h = (h ^ static_cast<std::uint64_t>(eng.now().ns)) *
            0x100000001b3ull;
      });
    }
    unsigned fired = 0;
    if (hooked) {
      eng.set_sampling_hook(usec(7), &fired, +[](void* c) {
        ++*static_cast<unsigned*>(c);
      });
    }
    eng.run();
    if (hooked) {
      EXPECT_GT(fired, 0u);
      eng.clear_sampling_hook();
    }
    h = (h ^ static_cast<std::uint64_t>(eng.now().ns)) * 0x100000001b3ull;
    return h;
  };
  EXPECT_EQ(run_workload(false), run_workload(true));
}

// --- sampler ----------------------------------------------------------------

TEST(TimeseriesSampler, WindowsPartitionRunTotalsExactly) {
  sim::Engine eng;
  MetricsRegistry reg;
  auto& ops = reg.counter("app/ops");
  for (int i = 1; i <= 100; ++i) {
    eng.schedule_fn(usec(7 * i), [&ops] { ops.inc(); });
  }
  obs::ts::TimeseriesConfig cfg;
  cfg.interval = usec(50);
  obs::ts::TimeseriesSampler s(eng, reg, cfg);
  eng.run();  // last event at 700us, exactly on a grid boundary
  s.finish();

  // Boundaries 50..700 give 14 windows; finish() always adds the trailing
  // partial window (here holding only the op at 700us itself, which the
  // boundary firing first pushed past window 13).
  ASSERT_EQ(s.windows(), 15u);
  EXPECT_EQ(s.dropped_windows(), 0u);
  double sum = 0;
  for (std::size_t w = 0; w < s.windows(); ++w) {
    sum += s.value("app/ops", w);
  }
  EXPECT_EQ(sum, 100.0);
  EXPECT_EQ(s.value("app/ops", 14), 1.0);  // the boundary-instant op
}

TEST(TimeseriesSampler, RingKeepsNewestWindowsAndCountsDropped) {
  sim::Engine eng;
  MetricsRegistry reg;
  auto& ops = reg.counter("app/ops");
  constexpr std::size_t kCap = obs::ts::TimeseriesSampler::kMaxWindows;
  constexpr std::size_t kWindows = kCap + 6;
  for (std::size_t i = 0; i < kWindows; ++i) {
    eng.schedule_fn(usec(10 * static_cast<std::int64_t>(i) + 5),
                    [&ops] { ops.inc(); });
  }
  obs::ts::TimeseriesConfig cfg;
  cfg.interval = usec(10);
  obs::ts::TimeseriesSampler s(eng, reg, cfg);
  eng.run();  // events at 5,15,25,...us: one per window
  s.finish();

  // kWindows - 1 boundaries + the trailing partial window; the ring keeps
  // the newest kCap.
  ASSERT_EQ(s.windows(), kWindows);
  EXPECT_EQ(s.dropped_windows(), 6u);
  for (std::size_t w = 6; w < kWindows; ++w) {
    ASSERT_EQ(s.value("app/ops", w), 1.0) << "window " << w;
  }
}

TEST(TimeseriesSampler, JsonDocumentCarriesGridSeriesAndPhases) {
  sim::Engine eng;
  MetricsRegistry reg;
  auto& ops = reg.counter("app/ops");
  auto& lat = reg.histogram("app/lat_us");
  double level = 3.0;
  reg.gauge("app/level", [&level] { return level; });
  for (int i = 0; i < 40; ++i) {
    eng.schedule_fn(usec(5 * i + 2), [&ops, &lat] {
      ops.inc(2);
      lat.add(usec(3));
    });
  }
  obs::ts::TimeseriesConfig cfg;
  cfg.interval = usec(20);
  obs::ts::TimeseriesSampler s(eng, reg, cfg);
  eng.run();
  std::ostringstream os;
  s.write_json(os, "unit.run");
  const std::string j = os.str();

  EXPECT_NE(j.find(R"("schema":"ordma.timeseries.v1")"), std::string::npos);
  EXPECT_NE(j.find(R"("run":"unit.run")"), std::string::npos);
  EXPECT_NE(j.find(R"("interval_ns":20000)"), std::string::npos);
  EXPECT_NE(j.find(R"("app/ops":{"kind":"delta")"), std::string::npos);
  EXPECT_NE(j.find(R"("app/level":{"kind":"sample")"), std::string::npos);
  EXPECT_NE(j.find(R"("app/lat_us":{"kind":"hist","count":)"),
            std::string::npos);
  EXPECT_NE(j.find(R"("p99_us":)"), std::string::npos);
  EXPECT_NE(j.find(R"("phases":{"series":"app/ops")"), std::string::npos);
  EXPECT_NE(j.find(R"("label":"steady")"), std::string::npos);
  // Valid window grid: t_ns starts at 0 and steps by the interval.
  EXPECT_NE(j.find(R"("t_ns":[0,20000,40000)"), std::string::npos);
}

TEST(TimeseriesSampler, CsvBlockExpandsHistogramColumns) {
  sim::Engine eng;
  MetricsRegistry reg;
  auto& lat = reg.histogram("app/lat_us");
  eng.schedule_fn(usec(5), [&lat] { lat.add(usec(3)); });
  obs::ts::TimeseriesConfig cfg;
  cfg.interval = usec(10);
  obs::ts::TimeseriesSampler s(eng, reg, cfg);
  eng.run();
  std::ostringstream os;
  s.write_csv(os, "unit.csv");
  const std::string c = os.str();
  EXPECT_NE(c.find("# run unit.csv interval_ns 10000"), std::string::npos);
  EXPECT_NE(c.find("t_ns,app/lat_us.count,app/lat_us.sum_us,"
                   "app/lat_us.p50_us,app/lat_us.p99_us"),
            std::string::npos);
  EXPECT_NE(c.find("# phase "), std::string::npos);
}

// --- phase summarizer -------------------------------------------------------

TEST(PhaseSummarizer, LabelsWarmupSteadySaturation) {
  std::vector<double> v;
  for (int i = 0; i < 5; ++i) v.push_back(1.0);    // ramp
  for (int i = 0; i < 20; ++i) v.push_back(10.0);  // plateau (longest)
  for (int i = 0; i < 8; ++i) v.push_back(20.0);   // peak
  const auto segs = obs::ts::summarize_phases(v);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].label, obs::ts::Phase::warmup);
  EXPECT_EQ(segs[0].begin, 0u);
  EXPECT_EQ(segs[0].end, 5u);
  EXPECT_EQ(segs[1].label, obs::ts::Phase::steady);
  EXPECT_EQ(segs[1].begin, 5u);
  EXPECT_EQ(segs[1].end, 25u);
  EXPECT_DOUBLE_EQ(segs[1].mean, 10.0);
  EXPECT_EQ(segs[2].label, obs::ts::Phase::saturation);
  EXPECT_EQ(segs[2].end, 33u);
}

TEST(PhaseSummarizer, LabelsDegradedCollapse) {
  std::vector<double> v(20, 10.0);
  for (int i = 0; i < 4; ++i) v.push_back(2.0);  // collapse below 75%
  const auto segs = obs::ts::summarize_phases(v);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].label, obs::ts::Phase::steady);
  EXPECT_EQ(segs[1].label, obs::ts::Phase::low);
  EXPECT_DOUBLE_EQ(segs[1].mean, 2.0);
}

TEST(PhaseSummarizer, SingleWindowBlipIsAbsorbed) {
  std::vector<double> v(10, 5.0);
  v[4] = 50.0;  // one-window spike, below the confirm run length
  const auto segs = obs::ts::summarize_phases(v);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].label, obs::ts::Phase::steady);
  EXPECT_EQ(segs[0].begin, 0u);
  EXPECT_EQ(segs[0].end, 10u);
  // The blip sits inside the segment's span but not its mean, so the
  // phase's own windows keep conforming to it.
  EXPECT_DOUBLE_EQ(segs[0].mean, 5.0);
}

TEST(PhaseSummarizer, EmptySeriesYieldsNoSegments) {
  EXPECT_TRUE(obs::ts::summarize_phases({}).empty());
}

// --- full-cluster zero perturbation + partition ----------------------------

struct ClusterRunResult {
  std::int64_t end_ns = 0;
  std::uint64_t reads = 0;
  std::string doc;  // empty when sampling was off
};

ClusterRunResult cluster_run(bool sampled) {
  core::ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  core::Cluster c(cc);
  c.start_nfs();
  auto client = c.make_nfs_client(0, KiB(16));

  std::unique_ptr<MetricsRegistry> reg;
  std::unique_ptr<obs::ts::TimeseriesSampler> sampler;
  if (sampled) {
    reg = std::make_unique<MetricsRegistry>();
    c.export_metrics(*reg);
    obs::ts::TimeseriesConfig cfg;
    cfg.interval = usec(20);
    sampler = std::make_unique<obs::ts::TimeseriesSampler>(c.engine(), *reg,
                                                           cfg);
  }

  ClusterRunResult out;
  bool done = false;
  c.engine().spawn([](core::Cluster& c, core::FileClient& client,
                      ClusterRunResult& out, bool& done) -> sim::Task<void> {
    co_await c.make_file("f", Bytes{KiB(64)}, /*warm=*/true);
    auto open = co_await client.open("f");
    ORDMA_CHECK(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(16));
    for (int i = 0; i < 16; ++i) {
      auto r = co_await client.pread(open.value().fh,
                                     (static_cast<Bytes>(i) * KiB(16)) %
                                         KiB(64),
                                     buf, KiB(16));
      ORDMA_CHECK(r.ok());
      ++out.reads;
    }
    done = true;
  }(c, *client, out, done));
  c.engine().run();
  EXPECT_TRUE(done);
  out.end_ns = c.engine().now().ns;

  if (sampled) {
    sampler->finish();
    // Partition property on real cluster series: summing the per-window
    // deltas of a cumulative gauge reproduces its final total.
    MetricsRegistry::DeltaCursor fresh;
    std::vector<MetricsRegistry::Delta> totals;
    reg->delta_snapshot(fresh, totals);
    for (const auto& d : totals) {
      if (d.kind != MetricsRegistry::Kind::counter &&
          d.kind != MetricsRegistry::Kind::cumulative_gauge) {
        continue;
      }
      double sum = 0;
      for (std::size_t w = 0; w < sampler->windows(); ++w) {
        sum += sampler->value(*d.path, w);
      }
      EXPECT_NEAR(sum, d.value, 1e-6) << *d.path;
    }
    std::ostringstream os;
    sampler->write_json(os, "cluster.unit");
    out.doc = os.str();
    sampler.reset();
    reg.reset();
  }
  return out;
}

TEST(TimeseriesSampler, ClusterRunIsBitIdenticalWithSamplingOnAndOff) {
  const ClusterRunResult off = cluster_run(false);
  const ClusterRunResult on = cluster_run(true);
  EXPECT_EQ(off.end_ns, on.end_ns);
  EXPECT_EQ(off.reads, on.reads);
  EXPECT_NE(on.doc.find(R"("schema":"ordma.timeseries.v1")"),
            std::string::npos);
  // And sampling is itself deterministic: same run, same document.
  const ClusterRunResult again = cluster_run(true);
  EXPECT_EQ(on.doc, again.doc);
}

}  // namespace
}  // namespace ordma
