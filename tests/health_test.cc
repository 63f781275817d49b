// Online SLO evaluation (obs/health.h): synthetic ratio and p99 SLOs over
// hand-driven metric windows (trip/clear mechanics, auto-calibration,
// ordma.health.v1 document shape), and a fault-injected cluster run whose
// degraded phase names the violated SLO in the timeseries phase report.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.h"
#include "core/cluster.h"
#include "core/file_client.h"
#include "fault/fault.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/timeseries.h"

namespace ordma {
namespace {

using obs::MetricsRegistry;
using obs::health::HealthMonitor;
using obs::health::SloSpec;

// A ratio SLO over synthetic counters: trips when both burn windows fire,
// clears when the fast window recovers, and the trip range is recorded.
TEST(Health, RatioSloTripsAndClears) {
  MetricsRegistry reg;
  auto& errors = reg.counter("client0/io/errors");
  auto& ops = reg.counter("client0/io/ops");

  SloSpec spec;
  spec.name = "io_errors";
  spec.kind = SloSpec::Kind::ratio;
  spec.series_suffix = "io/errors";
  spec.total_suffix = "io/ops";
  spec.threshold = 0.01;
  spec.budget = 0.1;
  spec.fast_windows = 3;
  spec.slow_windows = 12;
  HealthMonitor mon(reg, {spec});

  auto window = [&](std::uint64_t e, std::uint64_t o) {
    errors.inc(e);
    ops.inc(o);
    mon.sample_window(static_cast<std::int64_t>(mon.windows()) * 1000);
  };

  // 4 clean windows: healthy.
  for (int i = 0; i < 4; ++i) window(0, 100);
  EXPECT_TRUE(mon.healthy());
  // 3 violating windows (10% errors >> 1% threshold). A 10% budget means a
  // single bad window already burns the fast (1/3 / 0.1 = 3.3x) and slow
  // (1/5 / 0.1 = 2x) windows past threshold: the alert trips at window 4.
  for (int i = 0; i < 3; ++i) window(10, 100);
  ASSERT_EQ(mon.trips().size(), 1u);
  EXPECT_EQ(mon.trips()[0].slo, "io_errors");
  EXPECT_EQ(mon.trips()[0].component, "client0");
  EXPECT_EQ(mon.trips()[0].begin, 4u);
  EXPECT_GT(mon.trips()[0].peak_burn, 1.0);
  // Clean windows: the alert clears once the trailing fast window holds no
  // bad windows at all (window 9, three clean windows after the last bad).
  for (int i = 0; i < 3; ++i) window(0, 100);
  EXPECT_EQ(mon.trips().size(), 1u);
  EXPECT_EQ(mon.trips()[0].end, 9u);
  EXPECT_FALSE(mon.healthy()) << "a recorded trip keeps the run unhealthy";

  // Empty windows (no ops at all) are not judged.
  const auto evaluated_before = mon.windows();
  mon.sample_window(99000);
  EXPECT_EQ(mon.windows(), evaluated_before + 1);
}

// p99 SLO with threshold 0: auto-calibrates to auto_multiplier x the
// median window-p99 of the first calib_windows non-empty windows, then
// judges subsequent windows against it.
TEST(Health, P99AutoCalibratesThenTrips) {
  MetricsRegistry reg;
  auto& h = reg.histogram("client0/io/latency_us");

  SloSpec spec;
  spec.name = "io_p99";
  spec.kind = SloSpec::Kind::p99_latency;
  spec.series_suffix = "io/latency_us";
  spec.threshold = 0;  // auto
  spec.auto_multiplier = 4.0;
  spec.calib_windows = 3;
  spec.budget = 0.25;
  spec.fast_windows = 2;
  spec.slow_windows = 4;
  HealthMonitor mon(reg, {spec});

  auto window = [&](Duration sample) {
    for (int i = 0; i < 8; ++i) h.add(sample);
    mon.sample_window(static_cast<std::int64_t>(mon.windows()) * 1000);
  };

  // 3 calibration windows at ~100us: window p99 is the 128us bucket edge,
  // so the threshold calibrates to 512us. Calibration windows are never
  // judged bad.
  for (int i = 0; i < 3; ++i) window(usec(100));
  EXPECT_TRUE(mon.healthy());
  // A 300us window sits under the calibrated threshold: still healthy.
  window(usec(300));
  EXPECT_TRUE(mon.healthy());
  // Two 1000us windows (p99 = 1024us > 512us): burn_fast = (2/2)/0.25 = 4,
  // burn_slow = (2/3)/0.25 > 1 -> trip.
  window(usec(1000));
  window(usec(1000));
  ASSERT_EQ(mon.trips().size(), 1u);
  EXPECT_EQ(mon.trips()[0].slo, "io_p99");

  std::ostringstream os;
  mon.write_json(os, "synthetic");
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"schema\":\"ordma.health.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"healthy\":false"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"io_p99\""), std::string::npos);
  EXPECT_NE(doc.find("\"calibrated\":true"), std::string::npos);
  EXPECT_NE(doc.find("\"threshold\":512"), std::string::npos);
  EXPECT_NE(doc.find("\"trips\":[{\"slo\":\"io_p99\""), std::string::npos);
}

// A fixed (non-auto) threshold never calibrates off the data, and a run
// with zero violations serializes as healthy with an empty trips array.
TEST(Health, FixedThresholdHealthyRun) {
  MetricsRegistry reg;
  auto& h = reg.histogram("client7/io/latency_us");
  SloSpec spec;
  spec.name = "io_p99";
  spec.kind = SloSpec::Kind::p99_latency;
  spec.series_suffix = "io/latency_us";
  spec.threshold = 5000;  // us, fixed
  HealthMonitor mon(reg, {spec});
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 4; ++i) h.add(usec(200));
    mon.sample_window(w * 1000);
  }
  EXPECT_TRUE(mon.healthy());
  std::ostringstream os;
  mon.write_json(os, "clean");
  EXPECT_NE(os.str().find("\"healthy\":true"), std::string::npos);
  EXPECT_NE(os.str().find("\"trips\":[]"), std::string::npos);
  EXPECT_NE(os.str().find("\"component\":\"client7\""), std::string::npos);
}

// The acceptance-criterion integration path: a fault-injected cluster run
// under RunScope trips a stock-style SLO, the health document records it,
// and the timeseries phase report labels the overlapping phase "degraded"
// naming that SLO.
TEST(Health, DegradedPhaseNamesTheViolatedSlo) {
  using core::Cluster;
  using core::ClusterConfig;

  // A tightened io_p99 so a short test run calibrates and trips quickly.
  SloSpec spec;
  spec.name = "io_p99";
  spec.kind = SloSpec::Kind::p99_latency;
  spec.series_suffix = "io/latency_us";
  spec.threshold = 0;
  spec.auto_multiplier = 4.0;
  spec.calib_windows = 3;
  spec.budget = 0.25;
  spec.fast_windows = 2;
  spec.slow_windows = 4;

  obs::SinkSet sinks;
  sinks.ts_config.interval = usec(500);
  sinks.timeseries.emplace(obs::Sink::Layout::array);
  sinks.health.emplace(obs::Sink::Layout::array);
  sinks.slos = {spec};
  obs::install_sinks(&sinks);
  const obs::Sink& ts_sink = *sinks.timeseries;
  const obs::Sink& h_sink = *sinks.health;

  {
    ClusterConfig cc;
    cc.faults = fault::FaultPlan{};  // deterministic seed 1
    cc.faults->eth.drop = 0.25;     // heavy loss while armed
    cc.rpc_retry.timeout = usec(500);
    cc.rpc_retry.max_attempts = 10;
    Cluster c(cc);
    c.start_nfs();
    auto client = c.make_nfs_client(0);
    c.fault_injector()->set_armed(false);

    obs::ts::RunScope run(c.engine(), "lossy");
    ASSERT_TRUE(run.active());
    c.export_metrics(run.registry());
    c.export_file_client_metrics(run.registry(), 0, *client);

    constexpr Bytes kIo = KiB(8);
    constexpr int kPhase = 48;
    bool done = false;
    c.engine().spawn([](Cluster& c, core::FileClient& cl, bool& done)
                         -> sim::Task<void> {
      co_await c.make_file("f", static_cast<Bytes>(3 * kPhase) * kIo,
                           /*warm=*/true);
      auto open = co_await cl.open("f");
      ORDMA_CHECK(open.ok());
      auto& h = c.client(0);
      const mem::Vaddr buf = h.map_new(h.user_as(), kIo);
      for (int i = 0; i < 3 * kPhase; ++i) {
        if (i == kPhase) c.fault_injector()->set_armed(true);
        if (i == 2 * kPhase) c.fault_injector()->set_armed(false);
        auto r = co_await cl.pread(open.value().fh,
                                   static_cast<Bytes>(i) * kIo, buf, kIo);
        ORDMA_CHECK(r.ok() && r.value() == kIo);
      }
      done = true;
    }(c, *client, done));
    c.engine().run();
    ASSERT_TRUE(done);
  }  // RunScope destructor: health + timeseries docs land in the sinks

  obs::install_sinks(nullptr);

  ASSERT_EQ(h_sink.runs(), 1u);
  EXPECT_TRUE(sinks.slo_trips != 0);
  std::ostringstream hs;
  h_sink.write(hs);
  const std::string health_doc = hs.str();
  EXPECT_NE(health_doc.find("\"healthy\":false"), std::string::npos);
  EXPECT_NE(health_doc.find("\"trips\":[{\"slo\":\"io_p99\""),
            std::string::npos)
      << health_doc;

  ASSERT_EQ(ts_sink.runs(), 1u);
  const std::string ts_doc = ts_sink.doc(0);
  EXPECT_NE(ts_doc.find("\"label\":\"degraded\""), std::string::npos)
      << ts_doc;
  EXPECT_NE(ts_doc.find("\"slo\":\"io_p99\""), std::string::npos)
      << ts_doc;
}

}  // namespace
}  // namespace ordma
