#include "obs/timeseries.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/assert.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/sink.h"
#include "sim/engine.h"

namespace ordma::obs::ts {

// ---------------------------------------------------------------------------
// Phase summarizer
// ---------------------------------------------------------------------------

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::warmup: return "warmup";
    case Phase::steady: return "steady";
    case Phase::saturation: return "saturation";
    case Phase::low: return "low";
    case Phase::degraded: return "degraded";
  }
  return "?";
}

namespace {

// Segmentation: a new segment opens at the first of kConfirm consecutive
// windows whose value deviates from the running segment mean by more than
// kShift, relative to max(|mean|, kFloor) so an all-zero prefix does not
// divide by zero.
constexpr double kShift = 0.25;
constexpr std::size_t kConfirm = 3;
constexpr double kFloor = 1e-9;
// Labeling: the longest segment is steady (earliest wins ties) and earlier
// segments are warmup. A later segment at >= kSaturationFrac of the peak
// segment mean and above the steady mean is saturation; one below
// kLowFrac of the steady mean is low; any other stays steady.
// annotate_slo later relabels the segments an SLO trip overlaps degraded.
constexpr double kSaturationFrac = 0.9;
constexpr double kLowFrac = 0.75;

}  // namespace

std::vector<PhaseSegment> summarize_phases(const std::vector<double>& v) {
  std::vector<PhaseSegment> segs;
  const std::size_t n = v.size();
  if (n == 0) return segs;

  // Greedy mean-shift segmentation: grow the current segment's mean over
  // its conforming members; a run of kConfirm consecutive deviating
  // windows closes the segment at the run's first index. A deviating run
  // shorter than kConfirm is absorbed into the segment's *span* but kept
  // out of its mean — a single-window blip neither splits a phase nor
  // drags the mean enough to make the phase's own windows look deviant.
  std::size_t start = 0;
  double sum = 0;
  std::size_t count = 0;
  std::size_t run_start = 0;
  std::size_t run_len = 0;
  auto close = [&](std::size_t end) {
    segs.push_back({Phase::steady, start, end,
                    count ? sum / static_cast<double>(count) : 0.0, {}});
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double mean = count ? sum / static_cast<double>(count) : v[i];
    const double scale = std::max(std::abs(mean), kFloor);
    const bool deviates = count > 0 && std::abs(v[i] - mean) > kShift * scale;
    if (deviates) {
      if (run_len == 0) run_start = i;
      if (++run_len >= kConfirm) {
        close(run_start);
        start = run_start;
        sum = 0;
        count = 0;
        for (std::size_t j = run_start; j <= i; ++j) {
          sum += v[j];
          ++count;
        }
        run_len = 0;
      }
    } else {
      run_len = 0;  // short blip: spanned by the segment, not in its mean
      sum += v[i];
      ++count;
    }
  }
  close(n);

  // Labeling. Longest segment is the steady phase (earliest wins ties);
  // everything before it is warmup; later segments are judged against the
  // peak and steady means.
  std::size_t steady = 0;
  double peak = segs[0].mean;
  for (std::size_t i = 1; i < segs.size(); ++i) {
    if (segs[i].end - segs[i].begin >
        segs[steady].end - segs[steady].begin) {
      steady = i;
    }
    peak = std::max(peak, segs[i].mean);
  }
  const double steady_mean = segs[steady].mean;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (i == steady) continue;
    if (i < steady) {
      segs[i].label = Phase::warmup;
    } else if (segs[i].mean >= kSaturationFrac * peak &&
               segs[i].mean > steady_mean) {
      segs[i].label = Phase::saturation;
    } else if (segs[i].mean < kLowFrac * steady_mean) {
      segs[i].label = Phase::low;
    }  // else: stays steady
  }
  return segs;
}

bool parse_duration(const std::string& s, Duration* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || n <= 0 || errno == ERANGE) return false;
  const std::string unit(end);
  std::int64_t mult;
  if (unit.empty() || unit == "ns") {
    mult = 1;
  } else if (unit == "us") {
    mult = 1000;
  } else if (unit == "ms") {
    mult = 1000 * 1000;
  } else if (unit == "s") {
    mult = 1000 * 1000 * 1000;
  } else {
    return false;
  }
  if (n > std::numeric_limits<std::int64_t>::max() / mult) return false;
  *out = Duration{n * mult};
  return true;
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

TimeseriesSampler::TimeseriesSampler(sim::Engine& eng, MetricsRegistry& reg,
                                     TimeseriesConfig cfg)
    : eng_(eng), reg_(reg), cfg_(cfg) {
  ORDMA_CHECK(cfg_.interval.ns > 0);
  // Window 0 starts at the grid boundary at or before arming; its delta
  // absorbs everything the run did before the sampler existed (the cursor
  // baselines start at zero), so window sums always equal run totals.
  base_ns_ = (eng.now().ns / cfg_.interval.ns) * cfg_.interval.ns;
  scratch_.reserve(64);
  eng_.set_sampling_hook(cfg_.interval, this, &TimeseriesSampler::hook);
}

TimeseriesSampler::~TimeseriesSampler() { finish(); }

void TimeseriesSampler::hook(void* self) {
  static_cast<TimeseriesSampler*>(self)->sample_window();
}

void TimeseriesSampler::sample_window() {
  reg_.delta_snapshot(cursor_, scratch_);
  const std::size_t w = windows_;
  const std::size_t cap = kMaxWindows;
  for (const MetricsRegistry::Delta& d : scratch_) {
    auto it = cols_.find(*d.path);
    if (it == cols_.end()) {
      it = cols_.emplace(*d.path, Column{}).first;
      Column& fresh = it->second;
      fresh.kind = d.kind;
      fresh.first = w;
      fresh.v.reserve(cap);
      if (d.kind == MetricsRegistry::Kind::histogram) {
        fresh.h_sum_us.reserve(cap);
        fresh.h_p50_us.reserve(cap);
        fresh.h_p99_us.reserve(cap);
      }
    }
    Column& c = it->second;
    c.store(w, cap, d.value, c.v);
    if (c.kind == MetricsRegistry::Kind::histogram) {
      c.store(w, cap, d.h_sum_us, c.h_sum_us);
      c.store(w, cap,
              histogram_quantile_from_counts(
                  d.h_buckets, LatencyHistogram::bucket_count(), 0.5),
              c.h_p50_us);
      c.store(w, cap,
              histogram_quantile_from_counts(
                  d.h_buckets, LatencyHistogram::bucket_count(), 0.99),
              c.h_p99_us);
    }
  }
  ++windows_;
  if (obs_fn_ != nullptr) obs_fn_(obs_ctx_, eng_.now().ns);
}

void TimeseriesSampler::finish() {
  if (finished_) return;
  finished_ = true;
  end_ns_ = eng_.now().ns;
  // Trailing partial window [base + windows*interval, now]. Taken even
  // when empty so the window set partitions the run unconditionally.
  sample_window();
  eng_.clear_sampling_hook();

  // Pick the key series for the phase report.
  auto usable = [](const Column& c) {
    return c.kind == MetricsRegistry::Kind::counter ||
           c.kind == MetricsRegistry::Kind::cumulative_gauge;
  };
  const Column* key = nullptr;
  if (auto it = cols_.find("server/cpu/busy_us");
      it != cols_.end() && usable(it->second)) {
    key = &it->second;
    phase_key_ = it->first;
  }
  if (!key) {
    for (const auto& [name, c] : cols_) {
      if (usable(c)) {
        key = &c;
        phase_key_ = name;
        break;
      }
    }
  }
  if (!key && !cols_.empty()) {
    key = &cols_.begin()->second;
    phase_key_ = cols_.begin()->first;
  }
  if (key) {
    const std::size_t fk = first_kept();
    std::vector<double> vals;
    vals.reserve(windows_ - fk);
    for (std::size_t w = fk; w < windows_; ++w) {
      vals.push_back(col_value(*key, key->v, w));
    }
    phases_ = summarize_phases(vals);
    for (PhaseSegment& s : phases_) {
      s.begin += fk;
      s.end += fk;
    }
  }
}

void TimeseriesSampler::annotate_slo(const std::vector<SloMark>& marks) {
  for (PhaseSegment& s : phases_) {
    for (const SloMark& m : marks) {
      const std::size_t m_end = m.end == 0 ? windows_ : m.end;
      if (s.begin < m_end && m.begin < s.end) {
        s.label = Phase::degraded;
        s.slo = m.slo;
        break;
      }
    }
  }
}

double TimeseriesSampler::col_value(const Column& c,
                                    const std::vector<double>& ring,
                                    std::size_t w) const {
  if (w < c.first || ring.empty()) return 0.0;
  const std::size_t l = w - c.first;
  const std::size_t idx =
      ring.size() == kMaxWindows ? l % kMaxWindows : l;
  if (idx >= ring.size()) return 0.0;
  return ring[idx];
}

double TimeseriesSampler::value(const std::string& path,
                                std::size_t w) const {
  auto it = cols_.find(path);
  if (it == cols_.end() || w >= windows_) return 0.0;
  return col_value(it->second, it->second.v, w);
}

void TimeseriesSampler::write_json(std::ostream& os, const std::string& run) {
  finish();
  const std::size_t fk = first_kept();
  const std::int64_t iv = cfg_.interval.ns;
  os << R"({"schema":"ordma.timeseries.v1","run":")";
  json::escaped(os, run);
  os << R"(","interval_ns":)" << iv;
  os << R"(,"start_ns":)" << base_ns_ + static_cast<std::int64_t>(fk) * iv;
  os << R"(,"end_ns":)" << end_ns_;
  os << R"(,"windows":)" << windows_ - fk;
  os << R"(,"dropped_windows":)" << fk;
  os << R"(,"t_ns":[)";
  for (std::size_t w = fk; w < windows_; ++w) {
    if (w != fk) os << ",";
    os << base_ns_ + static_cast<std::int64_t>(w) * iv;
  }
  os << R"(],"series":{)";
  bool first_col = true;
  auto emit_ring = [&](const Column& c, const std::vector<double>& ring) {
    os << "[";
    for (std::size_t w = fk; w < windows_; ++w) {
      if (w != fk) os << ",";
      json::number(os, col_value(c, ring, w), 9);
    }
    os << "]";
  };
  for (const auto& [name, c] : cols_) {
    if (!first_col) os << ",";
    first_col = false;
    os << "\"";
    json::escaped(os, name);
    os << "\":{";
    switch (c.kind) {
      case MetricsRegistry::Kind::counter:
      case MetricsRegistry::Kind::cumulative_gauge:
        os << R"("kind":"delta","v":)";
        emit_ring(c, c.v);
        break;
      case MetricsRegistry::Kind::gauge:
        os << R"("kind":"sample","v":)";
        emit_ring(c, c.v);
        break;
      case MetricsRegistry::Kind::histogram:
        os << R"("kind":"hist","count":)";
        emit_ring(c, c.v);
        os << R"(,"sum_us":)";
        emit_ring(c, c.h_sum_us);
        os << R"(,"p50_us":)";
        emit_ring(c, c.h_p50_us);
        os << R"(,"p99_us":)";
        emit_ring(c, c.h_p99_us);
        break;
    }
    os << "}";
  }
  os << R"(},"phases":{"series":")";
  json::escaped(os, phase_key_);
  os << R"(","segments":[)";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const PhaseSegment& s = phases_[i];
    if (i) os << ",";
    os << R"({"label":")" << phase_name(s.label) << R"(","begin":)"
       << s.begin - fk << R"(,"end":)" << s.end - fk;
    const std::int64_t b_ns =
        base_ns_ + static_cast<std::int64_t>(s.begin) * iv;
    const std::int64_t e_ns = std::min(
        base_ns_ + static_cast<std::int64_t>(s.end) * iv, end_ns_);
    os << R"(,"begin_ns":)" << b_ns << R"(,"end_ns":)" << e_ns
       << R"(,"mean":)";
    json::number(os, s.mean, 9);
    if (!s.slo.empty()) {
      os << R"(,"slo":")";
      json::escaped(os, s.slo);
      os << "\"";
    }
    os << "}";
  }
  os << "]}}";
}

void TimeseriesSampler::write_csv(std::ostream& os, const std::string& run) {
  finish();
  const std::size_t fk = first_kept();
  const std::int64_t iv = cfg_.interval.ns;
  os << "# run " << run << " interval_ns " << iv << " dropped_windows "
     << fk << "\n";
  for (const PhaseSegment& s : phases_) {
    os << "# phase " << phase_name(s.label) << " " << s.begin - fk << " "
       << s.end - fk << " mean " << s.mean;
    if (!s.slo.empty()) os << " slo " << s.slo;
    os << "\n";
  }
  os << "t_ns";
  for (const auto& [name, c] : cols_) {
    if (c.kind == MetricsRegistry::Kind::histogram) {
      os << "," << name << ".count"
         << "," << name << ".sum_us"
         << "," << name << ".p50_us"
         << "," << name << ".p99_us";
    } else {
      os << "," << name;
    }
  }
  os << "\n";
  auto cell = [&](double v) {
    os << ",";
    json::number(os, v, 9);
  };
  for (std::size_t w = fk; w < windows_; ++w) {
    os << base_ns_ + static_cast<std::int64_t>(w) * iv;
    for (const auto& [name, c] : cols_) {
      cell(col_value(c, c.v, w));
      if (c.kind == MetricsRegistry::Kind::histogram) {
        cell(col_value(c, c.h_sum_us, w));
        cell(col_value(c, c.h_p50_us, w));
        cell(col_value(c, c.h_p99_us, w));
      }
    }
    os << "\n";
  }
}

// ---------------------------------------------------------------------------
// RunScope
// ---------------------------------------------------------------------------

RunScope::RunScope(sim::Engine& eng, std::string label)
    : label_(std::move(label)) {
  SinkSet* s = sinks();
  if (s == nullptr || (!s->metrics && !s->timeseries && !s->health)) return;
  sinks_ = s;
  reg_ = std::make_unique<MetricsRegistry>();
  if (s->timeseries) {
    sampler_ = std::make_unique<TimeseriesSampler>(eng, *reg_, s->ts_config);
  }
  if (s->health) {
    monitor_ = std::make_unique<health::HealthMonitor>(*reg_, s->slos);
    if (sampler_) {
      // One engine hook: the monitor rides the sampler's window grid.
      sampler_->set_window_observer(
          monitor_.get(), [](void* m, std::int64_t t_ns) {
            static_cast<health::HealthMonitor*>(m)->sample_window(t_ns);
          });
    } else {
      monitor_->arm(eng, msec(1));
    }
  }
}

RunScope::~RunScope() {
  if (!reg_) return;
  // The monitor must close its trips before the phase report is annotated
  // and serialized.
  if (sampler_) sampler_->finish();
  if (monitor_) {
    monitor_->finish();
    if (sampler_ && !monitor_->trips().empty()) {
      std::vector<TimeseriesSampler::SloMark> marks;
      marks.reserve(monitor_->trips().size());
      for (const health::Trip& t : monitor_->trips()) {
        marks.push_back({t.slo, t.begin, t.end});
      }
      sampler_->annotate_slo(marks);
    }
    std::ostringstream os;
    monitor_->write_json(os, label_);
    sinks_->health->add(label_, std::move(os).str());
    sinks_->slo_trips += monitor_->trips().size();
  }
  if (sampler_) {
    std::ostringstream os;
    if (sinks_->timeseries->layout() == Sink::Layout::blocks) {
      sampler_->write_csv(os, label_);
    } else {
      sampler_->write_json(os, label_);
    }
    sinks_->timeseries->add(label_, std::move(os).str());
  }
  if (sinks_->metrics) {
    std::ostringstream os;
    reg_->write_json(os);
    sinks_->metrics->add(label_, std::move(os).str());
  }
  monitor_.reset();
  sampler_.reset();  // gauge closures die with reg_ before the components
  reg_.reset();
}

}  // namespace ordma::obs::ts
