// Shared observability command-line handling for bench/ and examples/
// binaries:
//
//   --trace=<file>     record a Chrome trace (open in Perfetto / chrome://tracing)
//   --sample-traces=<file>[:N]
//                      tail-based sampled tracing (obs/sampler.h): spans
//                      stage per op and the keep/drop decision happens at
//                      op completion — ops slower than the rolling p99,
//                      errored, retried, or ORDMA-faulted are always kept,
//                      plus a deterministic 1-in-N reservoir of the rest
//                      (default N=64; :0 disables the reservoir). Output
//                      is the same Chrome trace format as --trace.
//   --metrics=<file>   ordma.metrics.v1 JSON: one registry snapshot per
//                      RunScope-wired run, merged across sweep workers
//   --flight=<file>    dump the flight-recorder rings on exit (obs/flight.h)
//   --timeseries=<file>[:interval]
//                      windowed time-series telemetry (obs/timeseries.h):
//                      every RunScope-wired run emits per-interval deltas,
//                      point samples and a phase report as
//                      ordma.timeseries.v1 JSON (or CSV if <file> ends in
//                      .csv). interval takes ns/us/ms/s suffixes, default
//                      1ms of simulated time.
//   --health=<file>    online SLO evaluation (obs/health.h): per run, the
//                      stock SLOs (op p99 latency, op error rate, ORDMA
//                      exception rate) are judged over delta windows with
//                      multi-window burn-rate alerting; one
//                      ordma.health.v1 document per run. The windows are
//                      the --timeseries grid when that flag is on, else
//                      1ms of simulated time.
//   --log=<level>      off | error | info | trace (simulated-time stamped)
//   --jobs=<n>         sweep worker threads (default: ORDMA_JOBS, else all
//                      cores; forced to 1 while --trace/--sample-traces/
//                      --flight is active, since those install on the main
//                      thread — --metrics/--timeseries/--health merge
//                      thread-safely and sweep in parallel)
//   --help             print these shared flags and exit
//
// Usage: construct one ObsSession at the top of main(). It consumes its own
// flags (compacting argc/argv so positional parsing downstream is
// unaffected), ignores everything else, installs the requested recorders
// and the process-global obs::SinkSet (obs/sink.h), and writes the output
// files when it goes out of scope.
#pragma once

#include <memory>
#include <string>

#include "obs/sampler.h"
#include "obs/sink.h"
#include "obs/trace.h"

namespace ordma::obs {

class ObsSession {
 public:
  ObsSession(int& argc, char** argv);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  TraceRecorder* recorder() { return recorder_.get(); }

  // Worker count for this binary's sweep (bench/bench_util.h sweep()).
  // Never 0; 1 whenever a trace surface is on, because the recorder is a
  // main-thread single-timeline instrument — the snapshot-driven sinks
  // (--metrics/--timeseries/--health) are thread-safe and don't force
  // serial.
  unsigned jobs() const { return jobs_; }

  // Write the outputs now (instead of at destruction) — used by binaries
  // that want to report file paths before printing their own results.
  void flush();

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string flight_path_;
  std::string timeseries_path_;
  std::string health_path_;
  std::unique_ptr<TraceRecorder> recorder_;
  std::unique_ptr<TraceSampler> sampler_;  // after recorder_: detaches first
  SinkSet sinks_;  // --metrics, --timeseries and --health
  unsigned jobs_ = 1;
  bool flushed_ = false;
};

}  // namespace ordma::obs
