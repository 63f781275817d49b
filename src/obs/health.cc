#include "obs/health.h"

#include <algorithm>
#include <ostream>

#include "common/assert.h"
#include "obs/json.h"
#include "sim/engine.h"

namespace ordma::obs::health {

namespace {

const char* kind_name(SloSpec::Kind k) {
  switch (k) {
    case SloSpec::Kind::p99_latency: return "p99_latency";
    case SloSpec::Kind::ratio: return "ratio";
  }
  return "?";
}

// Does `path` end in "/<suffix>" (or equal it)? Returns the component
// prefix via *component on match.
bool suffix_match(const std::string& path, const std::string& suffix,
                  std::string* component) {
  if (path.size() == suffix.size()) {
    if (path != suffix) return false;
    component->clear();
    return true;
  }
  if (path.size() < suffix.size() + 1) return false;
  const std::size_t at = path.size() - suffix.size();
  if (path[at - 1] != '/' || path.compare(at, suffix.size(), suffix) != 0) {
    return false;
  }
  *component = path.substr(0, at - 1);
  return true;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

std::vector<SloSpec> default_slos() {
  std::vector<SloSpec> v;
  {
    SloSpec s;
    s.name = "io_p99";
    s.kind = SloSpec::Kind::p99_latency;
    s.series_suffix = "io/latency_us";
    s.threshold = 0;  // auto-calibrate per component
    v.push_back(std::move(s));
  }
  {
    SloSpec s;
    s.name = "io_errors";
    s.kind = SloSpec::Kind::ratio;
    s.series_suffix = "io/errors";
    s.total_suffix = "io/ops";
    s.threshold = 0.01;
    v.push_back(std::move(s));
  }
  {
    SloSpec s;
    s.name = "ordma_exceptions";
    s.kind = SloSpec::Kind::ratio;
    s.series_suffix = "nic/ordma_faults";
    s.total_suffix = "nic/ordma_served";
    s.threshold = 0.05;
    v.push_back(std::move(s));
  }
  return v;
}

HealthMonitor::HealthMonitor(MetricsRegistry& reg, std::vector<SloSpec> slos)
    : reg_(reg), slos_(std::move(slos)) {
  scratch_.reserve(64);
}

HealthMonitor::~HealthMonitor() { finish(); }

void HealthMonitor::arm(sim::Engine& eng, Duration interval) {
  ORDMA_CHECK(eng_ == nullptr && !finished_);
  eng_ = &eng;
  eng.set_sampling_hook(interval, this, &HealthMonitor::hook);
}

void HealthMonitor::hook(void* self) {
  auto* m = static_cast<HealthMonitor*>(self);
  m->sample_window(m->eng_->now().ns);
}

HealthMonitor::Instance* HealthMonitor::instance_for(
    std::size_t spec, const std::string& series) {
  for (Instance& inst : instances_) {
    if (inst.spec == spec && inst.series == series) return &inst;
  }
  return nullptr;
}

double HealthMonitor::trailing_burn(const Instance& inst,
                                    std::size_t n) const {
  const std::size_t have = std::min(n, inst.evaluated);
  if (have == 0) return 0;
  const std::size_t cap = inst.bad.size();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < have; ++i) {
    // bad_head is the next write position == oldest entry once wrapped;
    // walk backwards from the most recent entry.
    const std::size_t idx = (inst.bad_head + cap - 1 - i) % cap;
    bad += inst.bad[idx];
  }
  const SloSpec& spec = slos_[inst.spec];
  const double frac = static_cast<double>(bad) / static_cast<double>(have);
  return spec.budget > 0 ? frac / spec.budget : (frac > 0 ? 1e9 : 0.0);
}

void HealthMonitor::evaluate(Instance& inst, double value,
                             std::int64_t t_ns) {
  const SloSpec& spec = slos_[inst.spec];
  if (!inst.calibrated) {
    if (spec.threshold > 0) {
      inst.threshold = spec.threshold;
      inst.calibrated = true;
    } else {
      inst.calib.push_back(value);
      if (inst.calib.size() >= spec.calib_windows) {
        inst.threshold = spec.auto_multiplier * median_of(inst.calib);
        inst.calibrated = true;
      }
      return;  // calibration windows are not judged
    }
  }
  const std::uint8_t bad = value > inst.threshold ? 1 : 0;
  const std::size_t cap = std::max<std::size_t>(spec.slow_windows, 1);
  if (inst.bad.size() < cap) {
    inst.bad.push_back(bad);
    inst.bad_head = inst.bad.size() % cap;
  } else {
    inst.bad[inst.bad_head] = bad;
    inst.bad_head = (inst.bad_head + 1) % cap;
  }
  ++inst.evaluated;
  inst.bad_total += bad;
  inst.burn_fast = trailing_burn(inst, spec.fast_windows);
  inst.burn_slow = trailing_burn(inst, spec.slow_windows);
  const bool firing = inst.burn_fast >= spec.burn_threshold &&
                      inst.burn_slow >= spec.burn_threshold &&
                      inst.evaluated >= spec.fast_windows;
  if (firing && !inst.tripped) {
    inst.tripped = true;
    inst.open_trip = trips_.size();
    Trip t;
    t.slo = spec.name;
    t.component = inst.component;
    t.begin = windows_;
    t.end = 0;
    t.peak_burn = inst.burn_fast;
    trips_.push_back(std::move(t));
    flight_.record(t_ns, flight::Ev::slo_trip, inst.spec, windows_,
                   static_cast<std::uint32_t>(inst.burn_fast * 1000.0));
  } else if (inst.tripped) {
    Trip& t = trips_[inst.open_trip];
    t.peak_burn = std::max(t.peak_burn, inst.burn_fast);
    if (inst.burn_fast < spec.burn_threshold) {
      inst.tripped = false;
      t.end = windows_;
      flight_.record(t_ns, flight::Ev::slo_clear, inst.spec, windows_);
    }
  }
}

void HealthMonitor::sample_window(std::int64_t t_ns) {
  if (finished_) return;
  reg_.delta_snapshot(cursor_, scratch_);
  // Path -> row lookup for ratio denominators (rows are path-sorted).
  auto find_row = [&](const std::string& path) -> const
      MetricsRegistry::Delta* {
        for (const MetricsRegistry::Delta& d : scratch_) {
          if (*d.path == path) return &d;
        }
        return nullptr;
      };
  for (std::size_t si = 0; si < slos_.size(); ++si) {
    const SloSpec& spec = slos_[si];
    std::string component;
    for (const MetricsRegistry::Delta& d : scratch_) {
      if (!suffix_match(*d.path, spec.series_suffix, &component)) continue;
      Instance* inst = instance_for(si, *d.path);
      if (inst == nullptr) {
        Instance fresh;
        fresh.spec = si;
        fresh.component = component;
        fresh.series = *d.path;
        if (spec.kind == SloSpec::Kind::ratio) {
          fresh.total = component.empty()
                            ? spec.total_suffix
                            : component + "/" + spec.total_suffix;
        }
        instances_.push_back(std::move(fresh));
        inst = &instances_.back();
      }
      switch (spec.kind) {
        case SloSpec::Kind::p99_latency: {
          if (d.kind != MetricsRegistry::Kind::histogram || d.value <= 0) {
            continue;  // empty window: nothing to judge
          }
          evaluate(*inst,
                   histogram_quantile_from_counts(
                       d.h_buckets, LatencyHistogram::bucket_count(), 0.99),
                   t_ns);
          break;
        }
        case SloSpec::Kind::ratio: {
          const MetricsRegistry::Delta* total = find_row(inst->total);
          if (total == nullptr || total->value <= 0) continue;
          evaluate(*inst, d.value / total->value, t_ns);
          break;
        }
      }
    }
  }
  ++windows_;
}

void HealthMonitor::finish() {
  if (finished_) return;
  finished_ = true;
  for (Instance& inst : instances_) {
    if (inst.tripped) {
      inst.tripped = false;
      trips_[inst.open_trip].end = windows_;
    }
  }
  if (eng_ != nullptr) {
    eng_->clear_sampling_hook();
    eng_ = nullptr;
  }
}

void HealthMonitor::write_json(std::ostream& os, const std::string& run) {
  finish();
  os << R"({"schema":"ordma.health.v1","run":")";
  json::escaped(os, run);
  os << R"(","windows":)" << windows_;
  os << R"(,"healthy":)" << (trips_.empty() ? "true" : "false");
  os << R"(,"slos":[)";
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Instance& inst = instances_[i];
    const SloSpec& spec = slos_[inst.spec];
    if (i) os << ",";
    os << R"({"name":")";
    json::escaped(os, spec.name);
    os << R"(","kind":")" << kind_name(spec.kind) << R"(","component":")";
    json::escaped(os, inst.component);
    os << R"(","series":")";
    json::escaped(os, inst.series);
    os << R"(","threshold":)";
    json::number(os, inst.threshold, 6);
    os << R"(,"calibrated":)" << (inst.calibrated ? "true" : "false");
    os << R"(,"evaluated":)" << inst.evaluated;
    os << R"(,"bad_windows":)" << inst.bad_total;
    os << R"(,"burn_fast":)";
    json::number(os, inst.burn_fast, 6);
    os << R"(,"burn_slow":)";
    json::number(os, inst.burn_slow, 6);
    os << "}";
  }
  os << R"(],"trips":[)";
  for (std::size_t i = 0; i < trips_.size(); ++i) {
    const Trip& t = trips_[i];
    if (i) os << ",";
    os << R"({"slo":")";
    json::escaped(os, t.slo);
    os << R"(","component":")";
    json::escaped(os, t.component);
    os << R"(","begin":)" << t.begin << R"(,"end":)" << t.end
       << R"(,"peak_burn":)";
    json::number(os, t.peak_burn, 6);
    os << "}";
  }
  os << "]}";
}

}  // namespace ordma::obs::health
