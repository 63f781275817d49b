// Machine-readable bench results, schema "ordma.bench.v1".
//
// Every bench binary that participates in perf-regression gating writes one
// of these documents (typically behind a --json=<file> flag). The committed
// baselines (BENCH_engine.json, BENCH_table1.json) are the same format;
// scripts/bench_compare.py diffs a fresh run against a baseline and fails
// CI when any metric moves past its tolerance in the losing direction.
//
//   {
//     "schema": "ordma.bench.v1",
//     "bench": "<binary name>",
//     "metrics": {
//       "<name>": {"value": N, "unit": "...", "higher_is_better": bool,
//                  "tolerance": R},
//       ...
//     }
//   }
//
// `tolerance` is the relative noise band the comparator allows before
// failing. Pick it by what the metric measures, not by optimism:
//  * deterministic simulated-time results (Table-1 bucket sums, e2e
//    latencies) reproduce bit-identically — use a tight band (~0.02) so a
//    real regression can't hide;
//  * wall-clock rates (events/sec on a shared CI runner) are hostage to
//    the neighbours — use a loose band (~0.6) so the gate never cries wolf.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ordma::bench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool higher_is_better = false;
  double tolerance = 0.02;  // relative; see header comment
};

class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  void add(std::string name, double value, std::string unit,
           bool higher_is_better, double tolerance) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                              higher_is_better, tolerance});
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\n  \"schema\": \"ordma.bench.v1\",\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n  \"metrics\": {\n",
                 bench_.c_str());
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f,
                   "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                   "\"higher_is_better\": %s, \"tolerance\": %g}%s\n",
                   m.name.c_str(), m.value, m.unit.c_str(),
                   m.higher_is_better ? "true" : "false", m.tolerance,
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
  }

 private:
  std::string bench_;
  std::vector<Metric> metrics_;
};

// The <file> of the last --json=<file> argument; "" when there is none.
inline std::string json_path(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 7) == "--json=") path = std::string(arg.substr(7));
  }
  return path;
}

// Write `report` to `path` and name the file on stdout, after `lead`; name
// it on stderr instead if the write fails. An empty path writes nothing.
// Returns false iff the write failed.
inline bool write_json(const BenchReport& report, const std::string& path,
                       const char* lead = "") {
  if (path.empty()) return true;
  if (!report.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("%sbench json written to %s\n", lead, path.c_str());
  return true;
}

}  // namespace ordma::bench
