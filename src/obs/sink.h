// One collector for every per-run document.
//
// The snapshot surfaces (--metrics, --timeseries and --health; obs/cli.h)
// each serialize one document per run (sweep cell). A Sink holds them under
// the run's label — a repeated label becomes "<label>#2", "<label>#3", ...,
// so no run is lost — and writes them in label order, in one of the three
// layouts the ordma.*.v1 files use. add() is thread-safe, so parallel sweep
// workers feed one sink and the file is the same at any worker count.
//
// A SinkSet is the one install: the sinks a RunScope (obs/timeseries.h)
// feeds, plus the settings their documents need. Lookup is thread-local
// first (a test gives each thread its own domain), then process-global
// (obs/cli.h installs one for the whole session).
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/health.h"
#include "obs/timeseries.h"

namespace ordma::obs {

class Sink {
 public:
  enum class Layout {
    object,  // {"schema":"ordma.metrics.v1","runs":{"<label>":<doc>,...}}
    array,   // [<doc>,...]: timeseries JSON and health
    blocks,  // <doc><doc>...: timeseries CSV, each block ending in '\n'
  };

  explicit Sink(Layout layout) : layout_(layout) {}
  Layout layout() const { return layout_; }

  // Thread-safe. The object layout trims the document's trailing
  // whitespace, since the document embeds in an object.
  void add(const std::string& label, std::string doc);
  std::size_t runs() const;
  // The i-th document in label order; i < runs() is CHECKed.
  std::string doc(std::size_t i) const;

  void write(std::ostream& os) const;
  bool write_file(const std::string& path) const;

 private:
  const Layout layout_;
  mutable std::mutex mu_;
  std::map<std::string, std::string> docs_;
};

// The one install. An empty sink leaves its surface off; with all three
// empty a RunScope is inert.
struct SinkSet {
  SinkSet() = default;
  ~SinkSet();  // uninstalls itself wherever it is still installed
  SinkSet(const SinkSet&) = delete;
  SinkSet& operator=(const SinkSet&) = delete;

  std::optional<Sink> metrics;
  std::optional<Sink> timeseries;  // Layout::array for JSON, blocks for CSV
  ts::TimeseriesConfig ts_config;
  std::optional<Sink> health;
  std::vector<health::SloSpec> slos = health::default_slos();
  std::atomic<std::size_t> slo_trips{0};  // summed over the health runs
};

// The calling thread's install, else the process-global one, else null.
SinkSet* sinks();
// Install `s` for the calling thread (nullptr uninstalls). The caller
// keeps ownership.
void install_sinks(SinkSet* s);
// Install `s` process-wide: set before sweep workers start, cleared after
// they join.
void install_global_sinks(SinkSet* s);

}  // namespace ordma::obs
