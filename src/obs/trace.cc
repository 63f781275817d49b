#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>

#include "common/assert.h"
#include "obs/json.h"
#include "obs/sampler.h"

namespace ordma::obs {

void install(TraceRecorder* r) {
  tls().recorder = r;
  ++tls().trace_epoch;
}

TraceRecorder::~TraceRecorder() {
  if (tls().recorder == this) install(nullptr);
}

TrackId TraceRecorder::track(std::string_view process,
                             std::string_view component) {
  for (TrackId t = 0; t < tracks_.size(); ++t) {
    if (tracks_[t].lane == 1 && tracks_[t].component == component &&
        processes_[tracks_[t].pid] == process) {
      return t;
    }
  }
  std::uint32_t pid = 0;
  for (; pid < processes_.size(); ++pid) {
    if (processes_[pid] == process) break;
  }
  if (pid == processes_.size()) processes_.emplace_back(process);
  TrackInfo info;
  info.component = std::string(component);
  info.pid = pid;
  tracks_.push_back(std::move(info));
  return static_cast<TrackId>(tracks_.size() - 1);
}

TrackId TraceRecorder::overflow_lane(TrackId t) {
  if (tracks_[t].overflow != 0) return tracks_[t].overflow;
  TrackInfo info;
  info.pid = tracks_[t].pid;
  info.lane = tracks_[t].lane + 1;
  info.component =
      tracks_[t].component.substr(0, tracks_[t].component.find('~')) + "~" +
      std::to_string(info.lane);
  tracks_.push_back(std::move(info));
  const auto lane = static_cast<TrackId>(tracks_.size() - 1);
  tracks_[t].overflow = lane;
  return lane;
}

void TraceRecorder::record_direct(Kind kind, TrackId track, OpId op,
                                  const char* name, std::int64_t begin_ns,
                                  std::int64_t end_ns) {
  ORDMA_CHECK(track < tracks_.size() && end_ns >= begin_ns);
  if (kind == Kind::span || kind == Kind::root) {
    // Keep each lane's slices disjoint (see overlap discipline in trace.h).
    // Events arrive in nondecreasing end order, so every span already on a
    // lane ends at or before that lane's last_end.
    while (tracks_[track].last_end > begin_ns) {
      track = overflow_lane(track);
    }
    tracks_[track].last_end = std::max(tracks_[track].last_end, end_ns);
  }
  push(Event{begin_ns, end_ns, name, op, track, kind});
}

void TraceRecorder::push(const Event& ev) {
  const std::size_t chunk = count_ >> kChunkShift;
  if (chunk == chunks_.size()) {
    chunks_.emplace_back(std::make_unique<Event[]>(kChunkEvents));
  }
  chunks_[chunk][count_ & (kChunkEvents - 1)] = ev;
  ++count_;
}

void TraceRecorder::clear() {
  count_ = 0;
  for (auto& t : tracks_) t.last_end = 0;
}

namespace {

void emit_ts(std::ostream& os, std::int64_t ns) {
  // Chrome trace timestamps are microseconds; print with ns precision.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  os << buf;
}

// Category = name prefix up to the first '/'.
std::string_view category_of(const char* name) {
  std::string_view s(name);
  const auto slash = s.find('/');
  return slash == std::string_view::npos ? s : s.substr(0, slash);
}

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  os << "[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata: process (host) and thread (component track) names. tids are
  // globally unique track ids; sort index keeps lane order stable.
  for (std::uint32_t pid = 0; pid < processes_.size(); ++pid) {
    sep();
    os << R"({"ph":"M","name":"process_name","pid":)" << pid
       << R"(,"tid":0,"args":{"name":")";
    json::escaped(os, processes_[pid]);
    os << "\"}}";
  }
  for (TrackId t = 0; t < tracks_.size(); ++t) {
    sep();
    os << R"({"ph":"M","name":"thread_name","pid":)" << tracks_[t].pid
       << R"(,"tid":)" << t + 1 << R"(,"args":{"name":")";
    json::escaped(os, tracks_[t].component);
    os << "\"}}";
    sep();
    os << R"({"ph":"M","name":"thread_sort_index","pid":)" << tracks_[t].pid
       << R"(,"tid":)" << t + 1 << R"(,"args":{"sort_index":)" << t + 1
       << "}}";
  }

  // Flow chains are grouped per op and ordered by (time, record order).
  struct FlowPoint {
    std::int64_t at;
    TrackId track;
    const char* name;
  };
  std::map<OpId, std::vector<FlowPoint>> flows;

  for_each_event([&](const Event& ev) {
    switch (ev.kind) {
      case Kind::span:
      case Kind::root: {
        sep();
        os << R"({"ph":"X","name":")";
        json::escaped(os, ev.name);
        os << R"(","cat":")";
        json::escaped(os, category_of(ev.name));
        os << R"(","pid":)" << tracks_[ev.track].pid << R"(,"tid":)"
           << ev.track + 1 << R"(,"ts":)";
        emit_ts(os, ev.begin_ns);
        os << R"(,"dur":)";
        emit_ts(os, ev.end_ns - ev.begin_ns);
        os << R"(,"args":{"op":)" << ev.op << "}}";
        break;
      }
      case Kind::instant: {
        sep();
        os << R"({"ph":"i","s":"t","name":")";
        json::escaped(os, ev.name);
        os << R"(","cat":")";
        json::escaped(os, category_of(ev.name));
        os << R"(","pid":)" << tracks_[ev.track].pid << R"(,"tid":)"
           << ev.track + 1 << R"(,"ts":)";
        emit_ts(os, ev.begin_ns);
        os << R"(,"args":{"op":)" << ev.op << "}}";
        break;
      }
      case Kind::flow:
        flows[ev.op].push_back(FlowPoint{ev.begin_ns, ev.track, ev.name});
        break;
    }
  });

  for (const auto& [op, points] : flows) {
    if (points.size() < 2) continue;  // an arrow needs two ends
    for (std::size_t i = 0; i < points.size(); ++i) {
      const char* ph = i == 0 ? "s" : (i + 1 == points.size() ? "f" : "t");
      sep();
      os << R"({"ph":")" << ph << R"(","cat":"flow","id":)" << op
         << R"(,"name":")";
      json::escaped(os, points[i].name);
      os << R"(","pid":)" << tracks_[points[i].track].pid << R"(,"tid":)"
         << points[i].track + 1 << R"(,"ts":)";
      emit_ts(os, points[i].at);
      if (ph[0] == 'f') os << R"(,"bp":"e")";
      os << "}";
    }
  }

  os << "\n]\n";
}

bool TraceRecorder::write_chrome_json_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_json(f);
  return f.good();
}

}  // namespace ordma::obs
