#include "obs/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/log.h"
#include "obs/flight.h"
#include "run/runner.h"

namespace ordma::obs {

namespace {
bool take_value(std::string_view arg, std::string_view flag,
                std::string* out) {
  if (arg.substr(0, flag.size()) != flag) return false;
  *out = std::string(arg.substr(flag.size()));
  return true;
}

// "<file>[:suffix]" -> <file>. The suffix after the last ':' counts only if
// `accept` parses it, so a path that holds a ':' still works.
template <typename Accept>
std::string split_suffix(const std::string& arg, Accept accept) {
  const auto colon = arg.rfind(':');
  if (colon != std::string::npos && accept(arg.substr(colon + 1))) {
    return arg.substr(0, colon);
  }
  return arg;
}

void print_help(const char* prog) {
  std::printf(
      "usage: %s [shared observability flags]\n"
      "\n"
      "shared observability flags (obs/cli.h, consumed before the binary's\n"
      "own argument parsing):\n"
      "  --trace=<file>     record a Chrome trace against simulated time\n"
      "  --sample-traces=<file>[:N]\n"
      "                     tail-based sampled tracing: keep every op that\n"
      "                     exceeded the rolling p99, errored, retried, or\n"
      "                     took an ORDMA exception, plus a deterministic\n"
      "                     1-in-N reservoir of the rest (default N=64,\n"
      "                     :0 disables the reservoir). Same Chrome trace\n"
      "                     output as --trace, a fraction of the size.\n"
      "  --metrics=<file>   ordma.metrics.v1 JSON: one registry snapshot\n"
      "                     per run, merged across sweep workers\n"
      "  --flight=<file>    dump the flight-recorder rings on exit\n"
      "  --timeseries=<file>[:interval]\n"
      "                     windowed time-series telemetry: per-interval\n"
      "                     rates/deltas, point samples and a run-phase\n"
      "                     report per run, as ordma.timeseries.v1 JSON\n"
      "                     (CSV if <file> ends in .csv). interval takes\n"
      "                     ns/us/ms/s suffixes; default 1ms of simulated\n"
      "                     time. Example: --timeseries=ts.json:500us\n"
      "  --health=<file>    online SLO/burn-rate evaluation per run (op p99\n"
      "                     latency, op error rate, ORDMA exception rate)\n"
      "                     as ordma.health.v1 JSON, over the --timeseries\n"
      "                     windows when that flag is on, else 1ms ones.\n"
      "  --log=<level>      off | error | info | trace\n"
      "  --jobs=<n>         sweep worker threads (default: ORDMA_JOBS, else\n"
      "                     all cores; forced to 1 while --trace/\n"
      "                     --sample-traces/--flight is active)\n"
      "  --help             this message\n",
      prog);
}
}  // namespace

ObsSession::ObsSession(int& argc, char** argv) {
  std::string log_level;
  std::string jobs_arg;
  std::string ts_arg;
  std::string sample_arg;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(argv[0]);
      std::exit(0);
    }
    const bool consumed =
        take_value(arg, "--trace=", &trace_path_) ||
        take_value(arg, "--sample-traces=", &sample_arg) ||
        take_value(arg, "--metrics=", &metrics_path_) ||
        take_value(arg, "--flight=", &flight_path_) ||
        take_value(arg, "--timeseries=", &ts_arg) ||
        take_value(arg, "--health=", &health_path_) ||
        take_value(arg, "--log=", &log_level) ||
        take_value(arg, "--jobs=", &jobs_arg);
    if (!consumed) argv[kept++] = argv[i];
  }
  argc = kept;
  argv[argc] = nullptr;
  if (log_level == "off") {
    Log::set_default_level(LogLevel::off);
  } else if (log_level == "error") {
    Log::set_default_level(LogLevel::error);
  } else if (log_level == "info") {
    Log::set_default_level(LogLevel::info);
  } else if (log_level == "trace") {
    Log::set_default_level(LogLevel::trace);
  } else if (!log_level.empty()) {
    std::fprintf(stderr, "obs: unknown --log level '%s' (want off|error|info|trace)\n",
                 log_level.c_str());
  }
  jobs_ = run::env_jobs();
  if (!jobs_arg.empty()) {
    const int n = std::atoi(jobs_arg.c_str());
    if (n >= 1) {
      jobs_ = static_cast<unsigned>(n);
    } else {
      std::fprintf(stderr, "obs: ignoring bad --jobs value '%s'\n",
                   jobs_arg.c_str());
    }
  }
  if (!sample_arg.empty() && !trace_path_.empty()) {
    std::fprintf(stderr,
                 "obs: --trace and --sample-traces are exclusive; keeping "
                 "--trace (full recording)\n");
    sample_arg.clear();
  }
  if (!trace_path_.empty()) {
    recorder_ = std::make_unique<TraceRecorder>();
    install(recorder_.get());
  }
  if (!sample_arg.empty()) {
    // --sample-traces=<file>[:N]: N is the reservoir period, an integer
    // in [0, UINT32_MAX].
    TraceSampler::Config cfg;
    trace_path_ = split_suffix(sample_arg, [&](const std::string& tail) {
      char* end = nullptr;
      errno = 0;
      const long n = std::strtol(tail.c_str(), &end, 10);
      if (end == tail.c_str() || *end != '\0' || errno == ERANGE || n < 0 ||
          n > std::numeric_limits<std::uint32_t>::max()) {
        return false;
      }
      cfg.reservoir_n = static_cast<std::uint32_t>(n);
      return true;
    });
    recorder_ = std::make_unique<TraceRecorder>();
    install(recorder_.get());
    sampler_ = std::make_unique<TraceSampler>(*recorder_, cfg);
  }
  if (!metrics_path_.empty()) sinks_.metrics.emplace(Sink::Layout::object);
  if (!ts_arg.empty()) {
    // --timeseries=<file>[:interval]
    timeseries_path_ = split_suffix(ts_arg, [&](const std::string& tail) {
      return ts::parse_duration(tail, &sinks_.ts_config.interval);
    });
    const bool csv = timeseries_path_.ends_with(".csv");
    sinks_.timeseries.emplace(csv ? Sink::Layout::blocks : Sink::Layout::array);
  }
  if (!health_path_.empty()) sinks_.health.emplace(Sink::Layout::array);
  install_global_sinks(&sinks_);
  // Trace surfaces are installed on this (the main) thread and record one
  // timeline; a simulation running on a pool worker would bypass them.
  // Force the sweep serial so every cell is observed — and name the
  // specific flag(s) that forced it. The snapshot-driven sinks
  // (--metrics/--timeseries/--health) merge thread-safely and keep
  // parallel sweeps.
  if (jobs_ > 1 && (recorder_ || !flight_path_.empty())) {
    std::string cause;
    if (recorder_) cause += sampler_ ? "--sample-traces" : "--trace";
    if (!flight_path_.empty()) {
      cause += std::string(cause.empty() ? "" : ", ") + "--flight";
    }
    std::fprintf(stderr,
                 "obs: %s installs a main-thread sink; running serial "
                 "(--jobs=%u ignored — drop %s to sweep in parallel)\n",
                 cause.c_str(), jobs_, cause.c_str());
    jobs_ = 1;
  }
}

void ObsSession::flush() {
  if (flushed_) return;
  flushed_ = true;
  if (recorder_) {
    // Replay kept spans for any ops still staged (nothing should be, after
    // a clean run) before serializing.
    if (sampler_) sampler_->finish();
    if (recorder_->write_chrome_json_file(trace_path_)) {
      if (sampler_) {
        std::fprintf(
            stderr,
            "obs: sampled trace written to %s (%zu events; kept %zu of "
            "%zu ops, %zu of %zu events)\n",
            trace_path_.c_str(), recorder_->event_count(),
            sampler_->ops_kept(), sampler_->ops_decided(),
            sampler_->events_kept(), sampler_->events_staged());
      } else {
        std::fprintf(stderr, "obs: trace written to %s (%zu events)\n",
                     trace_path_.c_str(), recorder_->event_count());
      }
    } else {
      std::fprintf(stderr, "obs: failed to write trace to %s\n",
                   trace_path_.c_str());
    }
  }
  if (!flight_path_.empty()) {
    // Rings live inside the simulated hosts: binaries using --flight must
    // call flush() before their Cluster goes out of scope, or the dump
    // will list no rings.
    if (flight::dump_all_file(flight_path_, "cli_flush")) {
      std::fprintf(stderr, "obs: flight dump written to %s\n",
                   flight_path_.c_str());
    } else {
      std::fprintf(stderr, "obs: failed to write flight dump to %s\n",
                   flight_path_.c_str());
    }
  }
  const struct {
    const char* name;
    const std::string& path;
    const std::optional<Sink>& sink;
  } surfaces[] = {{"metrics", metrics_path_, sinks_.metrics},
                  {"timeseries", timeseries_path_, sinks_.timeseries},
                  {"health", health_path_, sinks_.health}};
  for (const auto& s : surfaces) {
    if (!s.sink) continue;
    if (s.sink->runs() == 0) {
      std::fprintf(stderr,
                   "obs: --%s produced no runs — this binary has no "
                   "obs::ts::RunScope around its measured region yet\n",
                   s.name);
    }
    const bool trips = &s.sink == &sinks_.health && sinks_.slo_trips != 0;
    if (s.sink->write_file(s.path)) {
      std::fprintf(stderr, "obs: %s written to %s (%zu runs%s)\n", s.name,
                   s.path.c_str(), s.sink->runs(),
                   trips ? ", SLO trips recorded" : "");
    } else {
      std::fprintf(stderr, "obs: failed to write %s to %s\n", s.name,
                   s.path.c_str());
    }
  }
}

ObsSession::~ObsSession() { flush(); }

}  // namespace ordma::obs
