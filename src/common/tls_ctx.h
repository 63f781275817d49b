// One cache line of per-thread simulation context.
//
// The isolation contract (run/runner.h) makes every cross-cutting install
// thread-local: the trace recorder, metrics registry, flight-recorder
// enable bit, log level/clock, and the CHECK failure hook. They used to be
// five separate `thread_local` objects scattered across translation units
// — so a hot path touching two of them (say a flight record inside a
// logged region) paid two TLS address resolutions landing on two distinct
// cache lines. Consolidating them into one aligned POD gives every
// consumer the same single line, and lets per-run objects cache `&tls()`
// once at construction (obs::flight::Ring does) so their hot path is one
// plain pointer indirection with no TLS machinery at all.
//
// This header is foundation-level: it may not include anything above
// common/, so the obs types appear as forward declarations only.
#pragma once

#include <cstdint>

namespace ordma::obs {
class TraceRecorder;
class MetricsRegistry;
struct SinkSet;
}  // namespace ordma::obs

namespace ordma {

// Log verbosity, lazily initialized per thread from the process-wide
// default (see common/log.h, which owns the semantics).
enum class LogLevel { off = 0, error, info, trace };

struct alignas(64) TlsCtx {
  // --- tracing (obs/trace.h) — hot null check per span helper ---------
  obs::TraceRecorder* recorder = nullptr;
  std::uint32_t trace_epoch = 0;  // bumped per install; validates Track caches

  // --- flight recorder (obs/flight.h) — hot branch per record ---------
  bool flight_enabled = true;

  // --- logging (common/log.h) -----------------------------------------
  bool log_level_init = false;  // level picks up the default on first use
  LogLevel log_level = LogLevel::error;
  long long (*clock_fn)(const void*) = nullptr;  // simulated-time prefix
  const void* clock_ctx = nullptr;

  // --- metrics (obs/metrics.h) — snapshot-time only --------------------
  obs::MetricsRegistry* registry = nullptr;

  // --- per-run document sinks (obs/sink.h) — run start and end only ----
  obs::SinkSet* sinks = nullptr;

  // --- invariant checking (common/assert.h) — failure path only --------
  void (*check_failed_hook)() noexcept = nullptr;
};

static_assert(sizeof(TlsCtx) == 64, "TlsCtx must stay one cache line");

inline thread_local TlsCtx g_tls_ctx;

inline TlsCtx& tls() { return g_tls_ctx; }

}  // namespace ordma
