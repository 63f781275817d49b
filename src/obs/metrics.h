// Hierarchical metrics registry.
//
// Components register counters, pull-gauges and latency histograms under
// '/'-separated paths ("server/nic/tpt_miss", "client0/cache/hits"); a
// snapshot nests the paths into a JSON object tree. Entries are owned by
// the registry and stable for its lifetime (node-based map), so components
// can hold references. Gauges are sampled at snapshot time via a callback,
// which lets existing component counters (cache hit counts, resource busy
// time, ...) be exported without touching their owners' hot paths.
//
// Like tracing (obs/trace.h), a registry is installed per thread and absent
// by default; helpers no-op on a null registry.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/stats.h"
#include "common/tls_ctx.h"

namespace ordma::obs {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // What an entry is, from a windowed consumer's point of view: counters
  // and cumulative gauges are monotone totals (difference them per window
  // for a rate); plain gauges are instantaneous levels (sample the point
  // value); histograms difference per bucket.
  enum class Kind { counter, gauge, cumulative_gauge, histogram };

  // Find-or-create. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& path);
  LatencyHistogram& histogram(const std::string& path);
  // Register a *view* of a histogram owned elsewhere (a component's op
  // stats): snapshots read through the pointer, which must outlive the
  // registry. Same snapshot/delta semantics as an owned histogram.
  void histogram_view(const std::string& path, const LatencyHistogram* h);
  // Register (or replace) a gauge sampled at snapshot time. A *cumulative*
  // gauge exposes a monotonically nondecreasing total (resource busy time,
  // hit counts exported from component-owned counters); delta consumers
  // treat it like a counter, where a plain gauge (queue depth, occupancy)
  // is reported as a point sample.
  void gauge(const std::string& path, std::function<double()> fn,
             bool cumulative = false);

  std::size_t size() const { return entries_.size(); }

  // --- windowed deltas (obs/timeseries.h) ------------------------------
  // One per-entry row produced by delta_snapshot().
  struct Delta {
    const std::string* path;  // stable for the registry's lifetime
    Kind kind;
    // counter/cumulative_gauge: change since the cursor's last snapshot;
    // gauge: current point value; histogram: delta event count.
    double value = 0;
    // Histogram only: per-window change of the cumulative totals.
    double h_sum_us = 0;
    std::uint64_t h_buckets[LatencyHistogram::bucket_count()] = {};
  };

  // Per-consumer baseline for delta_snapshot(). One cursor per sampler;
  // snapshots never mutate the registry, so any number of cursors can
  // window the same registry independently.
  struct DeltaCursor {
    struct Base {
      double value = 0;
      double h_sum_us = 0;
      std::uint64_t h_buckets[LatencyHistogram::bucket_count()] = {};
    };
    std::map<std::string, Base> base;
  };

  // Append one Delta per entry to `out` (cleared first), differencing
  // against — then advancing — `cursor`. An entry added since the cursor's
  // previous snapshot differences against an implicit zero baseline, i.e.
  // its full current total becomes its first delta, so per-window sums
  // always partition run totals exactly however late an entry appears.
  // Entry order is deterministic (path-sorted). Once the cursor has seen
  // every entry and `out` has grown to registry size, calls allocate
  // nothing.
  void delta_snapshot(DeltaCursor& cursor, std::vector<Delta>& out) const;

  // Snapshot as nested JSON. Counters render as integers, gauges as
  // numbers, histograms as {count, mean_us, max_us, buckets:[{le_us,n}]}.
  void write_json(std::ostream& os) const;

 private:
  struct Entry {
    std::unique_ptr<Counter> c;
    std::unique_ptr<LatencyHistogram> h;
    const LatencyHistogram* hv = nullptr;  // non-owned view
    std::function<double()> g;
    bool g_cumulative = false;
    const LatencyHistogram* hist() const { return h ? h.get() : hv; }
  };
  // std::map: deterministic order and stable addresses.
  std::map<std::string, Entry> entries_;
};

// One row of a component's stats table: the metric's path (appended to the
// component's prefix), how to read it from the component, and whether it
// is a monotone total (a cumulative gauge, differenced per window by
// obs/timeseries.h) or an instantaneous level such as a queue depth.
// `read` is any captureless lambda taking T&; its result converts to
// double.
template <typename T>
struct Stat {
  template <typename Read>
  constexpr Stat(const char* name, Read, bool cumulative = true)
      : name(name),
        read([](T& obj) { return static_cast<double>(Read{}(obj)); }),
        cumulative(cumulative) {}
  const char* name;
  double (*read)(T&);
  bool cumulative;
};

// Register one pull-gauge per row of `table`, at prefix + row name, read
// from `obj` whenever the registry is sampled; `obj` must outlive `reg`.
template <typename T, std::size_t N>
void export_stats(MetricsRegistry& reg, const std::string& prefix,
                  std::type_identity_t<T>& obj, const Stat<T> (&table)[N]) {
  for (const Stat<T>& s : table) {
    reg.gauge(prefix + s.name, [&obj, read = s.read] { return read(obj); },
              s.cumulative);
  }
}

// Thread-local (net::packet.h Pool precedent; storage in the consolidated
// common/tls_ctx.h context): each parallel-runner worker installs its own
// registry, so concurrent simulations never mix metrics.
inline MetricsRegistry* registry() { return tls().registry; }

// Install `r` as the calling thread's registry (nullptr disables). Caller
// keeps ownership; a registry uninstalls itself on destruction if still
// installed on the destroying thread.
void install(MetricsRegistry* r);

}  // namespace ordma::obs
