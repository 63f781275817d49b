// Windowed time-series telemetry over simulated time.
//
// Every other observability surface here (metrics JSON, Table 1
// attribution, the p99 explainer) is an end-of-run aggregate; the paper's
// central phenomena — server CPU saturating under load (Fig. 7), ORDMA
// wins tracking the reference hit rate — are time-varying. This module
// adds the time axis: a TimeseriesSampler rides the engine's periodic
// sampling hook (sim/engine.h set_sampling_hook) and, at every boundary of
// a fixed simulated-time grid, takes a MetricsRegistry::delta_snapshot —
// counters and cumulative gauges become per-window deltas (rates), plain
// gauges become point samples, latency histograms become per-window delta
// histograms with nearest-rank p50/p99 — into per-series ring storage
// pre-allocated at series creation.
//
// The observer contract matches trace/flight: sampling draws no random
// numbers, schedules no events (the engine hook lives outside the event
// queues), and allocates nothing in steady state, so a run with sampling
// on is bit-identical to the same run with it off — golden-hash pinned by
// tests/timeseries_test.cc and the torture suite.
//
// Output is the `ordma.timeseries.v1` schema: a JSON array with one
// document per run (sweep cell), each carrying the window grid, every
// series, and the run-phase report produced by summarize_phases() — a
// deterministic windowed mean-shift segmentation labeling each stretch of
// the key series warmup / steady / saturation / low, with degraded kept for
// stretches an SLO trip overlaps (obs/health.h). A `.csv` output path
// selects a flat one-block-per-run CSV rendering instead.
// scripts/validate_timeseries.py checks the invariants (monotone
// timestamps, constant interval, rate non-negativity); ROADMAP item 4's
// adaptive protocol policy is the intended in-process consumer.
//
// Wiring: obs/cli.h parses --timeseries=<file>[:interval], installs the
// session's obs::SinkSet (obs/sink.h), and writes the file at session end.
// A binary opts a run in by constructing a RunScope around the measured
// region and exporting its components into the scope's registry; with no
// sink installed the scope is inert and costs two pointer reads.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"

namespace ordma::sim {
class Engine;
}

namespace ordma::obs::health {
class HealthMonitor;
}  // namespace ordma::obs::health

namespace ordma::obs {
struct SinkSet;
}  // namespace ordma::obs

namespace ordma::obs::ts {

// ---------------------------------------------------------------------------
// Run-phase summarizer
// ---------------------------------------------------------------------------

// `low` is a stretch well below the steady mean with no SLO trip: the key
// series fell, which is not by itself a failure (ODAFS's small-I/O pass
// runs at zero server CPU). Only an SLO trip makes a stretch `degraded`.
enum class Phase { warmup, steady, saturation, low, degraded };
const char* phase_name(Phase p);

struct PhaseSegment {
  Phase label{};
  std::size_t begin = 0;  // window index, inclusive
  std::size_t end = 0;    // window index, exclusive
  double mean = 0;        // mean of the key series over [begin, end)
  // Violated SLO name when an obs/health.h trip overlaps this segment
  // (annotate_slo); such segments are relabeled degraded.
  std::string slo;
};

// Deterministic windowed mean-shift segmentation + labeling of one series
// (the constants and the labeling rule are in timeseries.cc). Pure function
// of its input; unit-tested on synthetic series.
std::vector<PhaseSegment> summarize_phases(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

struct TimeseriesConfig {
  Duration interval = msec(1);
};

// "500us", "2ms", "1s", "250000ns" or a bare nanosecond count; false for
// anything else, a count <= 0, or one past int64 nanoseconds.
bool parse_duration(const std::string& s, Duration* out);

// Drives one run's windows: arms the engine's sampling hook on
// construction, closes a window at every grid boundary the run crosses,
// and on finish() captures the trailing partial window (so window sums
// partition run totals exactly) and computes the phase report.
class TimeseriesSampler {
 public:
  // Ring capacity per series, reserved up front: with more than
  // kMaxWindows windows the oldest are dropped (and counted) so steady
  // state never reallocates however long the run.
  static constexpr std::size_t kMaxWindows = 4096;

  TimeseriesSampler(sim::Engine& eng, MetricsRegistry& reg,
                    TimeseriesConfig cfg = {});
  ~TimeseriesSampler();  // disarms the hook
  TimeseriesSampler(const TimeseriesSampler&) = delete;
  TimeseriesSampler& operator=(const TimeseriesSampler&) = delete;

  // Close the window ending at the engine's current instant. Called by the
  // engine hook at grid boundaries; tests may call it directly.
  void sample_window();
  // Capture the trailing partial window and compute phases. Idempotent;
  // called automatically by the first write_*().
  void finish();

  // Chain a second windowed consumer onto this sampler's grid: `fn` fires
  // after every closed window (including the trailing partial one) with
  // the engine's current time. The engine allows one sampling hook, so
  // obs/health.h rides this instead of arming its own when both are on.
  void set_window_observer(void* ctx, void (*fn)(void*, std::int64_t)) {
    obs_ctx_ = ctx;
    obs_fn_ = fn;
  }

  // Fold SLO trips (window-index ranges from obs/health.h) into the phase
  // report: segments overlapping a trip are relabeled degraded and carry
  // the violated SLO's name. Call after finish(); end == 0 means
  // still-open (extends to the last window).
  struct SloMark {
    std::string slo;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  void annotate_slo(const std::vector<SloMark>& marks);

  std::size_t windows() const { return windows_; }
  std::size_t dropped_windows() const {
    return windows_ > kMaxWindows ? windows_ - kMaxWindows : 0;
  }
  // Value of series `path` in (absolute) window w; 0 before the series
  // existed. For histograms, the delta event count.
  double value(const std::string& path, std::size_t w) const;
  const std::vector<PhaseSegment>& phases() const { return phases_; }
  // The phase report's key series: "server/cpu/busy_us" when present,
  // else the first delta-kind series in path order.
  const std::string& phase_series() const { return phase_key_; }

  // One `ordma.timeseries.v1` document / CSV block for this run.
  void write_json(std::ostream& os, const std::string& run);
  void write_csv(std::ostream& os, const std::string& run);

 private:
  struct Column {
    MetricsRegistry::Kind kind{};
    std::size_t first = 0;       // window index when the series appeared
    std::vector<double> v;       // delta / sample value (hist: count)
    std::vector<double> h_sum_us, h_p50_us, h_p99_us;  // histogram only
    void store(std::size_t w, std::size_t cap, double x,
               std::vector<double>& ring) {
      if (ring.size() < cap) {
        ring.push_back(x);
      } else {
        ring[(w - first) % cap] = x;
      }
    }
  };

  static void hook(void* self);
  double col_value(const Column& c, const std::vector<double>& ring,
                   std::size_t w) const;
  std::size_t first_kept() const { return dropped_windows(); }

  sim::Engine& eng_;
  MetricsRegistry& reg_;
  TimeseriesConfig cfg_;
  std::int64_t base_ns_ = 0;  // grid start of window 0 (multiple of interval)
  std::size_t windows_ = 0;
  bool finished_ = false;
  std::int64_t end_ns_ = 0;  // engine now at finish()
  MetricsRegistry::DeltaCursor cursor_;
  std::vector<MetricsRegistry::Delta> scratch_;
  std::map<std::string, Column> cols_;  // deterministic series order
  std::vector<PhaseSegment> phases_;
  std::string phase_key_;
  void* obs_ctx_ = nullptr;
  void (*obs_fn_)(void*, std::int64_t) = nullptr;
};

// ---------------------------------------------------------------------------
// Per-run scope
// ---------------------------------------------------------------------------

// Per-run RAII wiring for every snapshot-driven obs surface: when the
// installed obs::SinkSet (obs/sink.h) has a metrics, timeseries or health
// sink, owns a fresh MetricsRegistry for the run's gauges (so gauge
// closures never outlive the components they read) plus a
// TimeseriesSampler on the run's engine (timeseries sink) and/or a
// HealthMonitor (health sink). The engine allows one sampling hook, so
// with both on the monitor rides the sampler's window grid; alone it arms
// its own 1 ms grid. On destruction the monitor closes its trips, trip
// ranges annotate the phase report, and each surface's serialized document
// lands in its sink under `label`. With no sink installed the scope is
// inert and free. Destroy the scope *before* the cluster whose components
// were exported into registry().
class RunScope {
 public:
  RunScope(sim::Engine& eng, std::string label);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  bool active() const { return reg_ != nullptr; }
  MetricsRegistry& registry() { return *reg_; }  // valid iff active()

 private:
  std::string label_;
  SinkSet* sinks_ = nullptr;  // set iff active()
  std::unique_ptr<MetricsRegistry> reg_;
  std::unique_ptr<TimeseriesSampler> sampler_;
  std::unique_ptr<health::HealthMonitor> monitor_;
};

}  // namespace ordma::obs::ts
