// Online SLO evaluation with multi-window burn-rate alerting.
//
// Every obs surface so far explains a run *postmortem*; nothing watches a
// run while it happens. A HealthMonitor evaluates declarative SLOs online
// over the same MetricsRegistry::delta_snapshot windows the timeseries
// sampler uses: at each window boundary it snapshots its own DeltaCursor
// (cursors are independent — the timeseries sampler's windows are
// untouched), judges each SLO instance's window as good or bad, and feeds
// a fast and a slow trailing window of badness into the classic burn-rate
// rule: an alert *trips* when both windows burn error budget faster than
// the threshold, and clears when the fast window recovers. Trips and
// clears land in a flight-recorder ring ("health") and in the
// `ordma.health.v1` JSON document; obs/timeseries.h folds the trip ranges
// into its run-phase report, where the stretches a trip overlaps are
// labelled "degraded" and name the violated SLO.
//
// SLO specs are declarative and *suffix-matched*: "io/latency_us" matches
// every component exporting that series (client0, client1, ...), so one
// spec instantiates per component at runtime — add a client and it is
// watched, no config change. p99-latency thresholds auto-calibrate by
// default (multiplier x the median of the first calibration windows), so
// the same spec works across a 4 KB NFS cell and a 512 KB DAFS cell while
// still tripping when a fault-injected run degrades.
//
// Observer contract (same as trace/flight/timeseries): evaluation draws no
// random numbers, schedules nothing, and reads only registry snapshots —
// a run with --health on is bit-identical to the same run without it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace ordma::sim {
class Engine;
}

namespace ordma::obs::health {

struct SloSpec {
  enum class Kind {
    p99_latency,  // per-window nearest-rank p99 of a latency histogram
    ratio,        // per-window bad-event count over total-event count
  };

  std::string name;  // e.g. "io_p99"
  Kind kind = Kind::p99_latency;
  // Series path suffix this SLO instantiates over: the histogram series
  // for p99_latency, the bad-event series for ratio. One instance per
  // matching component ("client0/io/latency_us" -> component "client0").
  std::string series_suffix;
  // ratio only: the denominator series suffix on the same component.
  std::string total_suffix;
  // p99_latency: threshold in us; 0 auto-calibrates to auto_multiplier x
  // the median window-p99 of the first calib_windows non-empty windows.
  // ratio: bad fraction threshold.
  double threshold = 0;
  double auto_multiplier = 4.0;
  std::size_t calib_windows = 5;
  // Burn-rate alerting: a window is "bad" when it violates the threshold;
  // budget is the tolerated bad-window fraction; burn = bad fraction /
  // budget over the trailing window. Trip when both the fast and the slow
  // burn reach burn_threshold; clear when the fast burn drops below it.
  double budget = 0.1;
  double burn_threshold = 1.0;
  std::size_t fast_windows = 3;
  std::size_t slow_windows = 12;
};

// The stock fleet SLOs: per-component op p99 latency (auto-calibrated),
// op error rate, and ORDMA exception rate.
std::vector<SloSpec> default_slos();

// One tripped alert's active range, in window indices.
struct Trip {
  std::string slo;
  std::string component;
  std::size_t begin = 0;  // first tripped window (inclusive)
  std::size_t end = 0;    // first recovered window (exclusive)
  double peak_burn = 0;   // max fast burn while active
};

class HealthMonitor {
 public:
  explicit HealthMonitor(MetricsRegistry& reg,
                         std::vector<SloSpec> slos = default_slos());
  ~HealthMonitor();
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Standalone driving: arm the engine's periodic sampling hook. Only for
  // runs without a TimeseriesSampler (the engine has one hook); when both
  // are active the monitor chains off the sampler's window observer
  // instead (obs/timeseries.h RunScope does this wiring).
  void arm(sim::Engine& eng, Duration interval);

  // Evaluate the window ending now. `t_ns` stamps flight-ring records.
  void sample_window(std::int64_t t_ns);
  // Close open trips and disarm; idempotent.
  void finish();

  std::size_t windows() const { return windows_; }
  const std::vector<Trip>& trips() const { return trips_; }
  bool healthy() const { return trips_.empty(); }

  // One `ordma.health.v1` document for this run.
  void write_json(std::ostream& os, const std::string& run);

 private:
  struct Instance {
    std::size_t spec = 0;  // index into slos_
    std::string component;
    std::string series;  // full matched path
    std::string total;   // ratio only
    double threshold = 0;
    bool calibrated = false;
    std::vector<double> calib;
    std::vector<std::uint8_t> bad;  // trailing badness ring
    std::size_t bad_head = 0;       // ring cursor once full
    std::size_t evaluated = 0;
    std::uint64_t bad_total = 0;
    double burn_fast = 0, burn_slow = 0;
    bool tripped = false;
    std::size_t open_trip = 0;  // index into trips_ while tripped
  };

  static void hook(void* self);
  Instance* instance_for(std::size_t spec, const std::string& series);
  void evaluate(Instance& inst, double value, std::int64_t t_ns);
  double trailing_burn(const Instance& inst, std::size_t n) const;

  MetricsRegistry& reg_;
  std::vector<SloSpec> slos_;
  MetricsRegistry::DeltaCursor cursor_;
  std::vector<MetricsRegistry::Delta> scratch_;
  std::vector<Instance> instances_;
  std::vector<Trip> trips_;
  std::size_t windows_ = 0;
  bool finished_ = false;
  sim::Engine* eng_ = nullptr;  // set iff armed standalone
  flight::Ring flight_{"health"};
};

}  // namespace ordma::obs::health
