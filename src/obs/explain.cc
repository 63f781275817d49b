#include "obs/explain.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string_view>

#include "obs/json.h"
#include "obs/sweep.h"

namespace ordma::obs {

const char* cause_name(Cause c) {
  switch (c) {
    case Cause::disk_media:
      return "disk_media";
    case Cause::disk_queue:
      return "disk_queue";
    case Cause::wire:
      return "wire";
    case Cause::nic:
      return "nic";
    case Cause::nic_queue:
      return "nic_queue";
    case Cause::server_cpu:
      return "server_cpu";
    case Cause::cache_fill:
      return "cache_fill";
    case Cause::client_cpu:
      return "client_cpu";
    case Cause::rpc_retransmit:
      return "rpc_retransmit";
    case Cause::other:
      return "other";
  }
  return "?";
}

double CauseBreakdown::sum_us() const {
  double s = 0;
  for (double u : us) s += u;
  return s;
}

Cause CauseBreakdown::dominant() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kCauseCount; ++i) {
    if (us[i] > us[best]) best = i;
  }
  return static_cast<Cause>(best);
}

namespace {

// Priorities are the enum order: deepest pipeline stage first, queueing for
// a stage right behind it, rpc_retransmit just above the idle fallback.
constexpr std::array<int, kCauseCount> kPriority = {0, 1, 2, 3, 4,
                                                    5, 6, 7, 8, 9};

bool has_prefix(const char* name, const char* prefix) {
  return std::strncmp(name, prefix, std::strlen(prefix)) == 0;
}

// Map one leaf span to its cause. `on_root_process` says whether the span's
// track lives on the same simulated host as the op's envelope (the issuing
// client): host CPU work splits into client_cpu vs server_cpu on that.
// `component` distinguishes whose queue a "queue/wait" span waited in; it
// may carry an overflow-lane suffix ("disk.q~2"), hence substring matching.
Cause classify(const char* name, std::string_view component,
               bool on_root_process) {
  if (has_prefix(name, "disk/")) return Cause::disk_media;
  if (has_prefix(name, "queue/")) {
    if (component.find("disk.q") != std::string_view::npos) {
      return Cause::disk_queue;
    }
    if (component.find("nic.") != std::string_view::npos &&
        component.find(".q") != std::string_view::npos) {
      return Cause::nic_queue;
    }
    // CPU (or other host resource) queueing: charge like the work itself.
    return on_root_process ? Cause::client_cpu : Cause::server_cpu;
  }
  if (has_prefix(name, "wire/")) return Cause::wire;
  if (has_prefix(name, "nic/")) return Cause::nic;
  if (std::strcmp(name, "io/rpc_retransmit") == 0) {
    return Cause::rpc_retransmit;
  }
  if (std::strcmp(name, "io/cache_miss") == 0) return Cause::cache_fill;
  // Everything else ("io/", "byte/", "pkt/", unknown prefixes) is host
  // processing charged to whichever side ran it.
  return on_root_process ? Cause::client_cpu : Cause::server_cpu;
}

void write_causes(std::ostream& os, const double (&us)[kCauseCount]) {
  os << "{";
  for (std::size_t i = 0; i < kCauseCount; ++i) {
    if (i) os << ", ";
    os << "\"" << cause_name(static_cast<Cause>(i)) << "\": " << us[i];
  }
  os << "}";
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

}  // namespace

std::map<OpId, CauseBreakdown> explain(const TraceRecorder& rec) {
  std::map<OpId, CauseBreakdown> result;
  sweep_ops(
      rec, kPriority, static_cast<std::size_t>(Cause::other),
      [&](const TraceRecorder::Event& root, const TraceRecorder::Event& leaf) {
        return classify(leaf.name, rec.track_component(leaf.track),
                        rec.track_process(leaf.track) ==
                            rec.track_process(root.track));
      },
      [&](OpId op, const TraceRecorder::Event& root,
          const std::array<double, kCauseCount>& us) {
        CauseBreakdown& out = result[op];
        out.op = op;
        out.root_name = root.name;
        out.total_us =
            static_cast<double>(root.end_ns - root.begin_ns) / 1000.0;
        std::copy(us.begin(), us.end(), out.us);
      });
  return result;
}

std::vector<CauseBreakdown> slowest(
    const std::map<OpId, CauseBreakdown>& ops, std::size_t k) {
  std::vector<CauseBreakdown> all;
  all.reserve(ops.size());
  for (const auto& [op, bd] : ops) all.push_back(bd);
  std::sort(all.begin(), all.end(),
            [](const CauseBreakdown& a, const CauseBreakdown& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.op < b.op;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

void write_explain_json(std::ostream& os, const char* label,
                        const std::map<OpId, CauseBreakdown>& ops,
                        std::size_t k) {
  std::vector<double> totals;
  totals.reserve(ops.size());
  double causes[kCauseCount] = {};
  double mean = 0;
  for (const auto& [op, bd] : ops) {
    totals.push_back(bd.total_us);
    mean += bd.total_us;
    for (std::size_t i = 0; i < kCauseCount; ++i) causes[i] += bd.us[i];
  }
  std::sort(totals.begin(), totals.end());
  if (!totals.empty()) mean /= static_cast<double>(totals.size());

  os << "{\n  \"schema\": \"ordma.explain.v1\",\n  \"label\": \"";
  json::escaped(os, label);
  os << "\",\n  \"ops\": " << totals.size() << ",\n";
  os << "  \"latency_us\": {\"p50\": " << percentile(totals, 0.50)
     << ", \"p90\": " << percentile(totals, 0.90) << ", \"p99\": "
     << percentile(totals, 0.99) << ", \"max\": "
     << (totals.empty() ? 0.0 : totals.back()) << ", \"mean\": " << mean
     << "},\n";
  os << "  \"causes_us\": ";
  write_causes(os, causes);
  // Per-cause exemplar: the slowest op dominated by each cause. With the
  // tail sampler on, these are by construction *kept* op ids — a reader can
  // jump from "disk_queue is the tail's problem" straight to a retained
  // trace that shows it (ties to the smaller op id for determinism).
  OpId exemplar[kCauseCount] = {};
  double exemplar_us[kCauseCount] = {};
  for (const auto& [op, bd] : ops) {
    const auto d = static_cast<std::size_t>(bd.dominant());
    if (exemplar[d] == 0 || bd.total_us > exemplar_us[d]) {
      exemplar[d] = op;
      exemplar_us[d] = bd.total_us;
    }
  }
  os << ",\n  \"exemplars\": {";
  for (std::size_t i = 0; i < kCauseCount; ++i) {
    if (i) os << ", ";
    os << "\"" << cause_name(static_cast<Cause>(i))
       << "\": " << exemplar[i];
  }
  os << "},\n  \"slowest\": [";
  const auto top = slowest(ops, k);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const CauseBreakdown& bd = top[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"op\": " << bd.op << ", \"root\": \"";
    json::escaped(os, bd.root_name);
    os << "\", \"total_us\": " << bd.total_us << ", \"dominant\": \""
       << cause_name(bd.dominant()) << "\", \"causes_us\": ";
    write_causes(os, bd.us);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

bool write_explain_json_file(const std::string& path, const char* label,
                             const std::map<OpId, CauseBreakdown>& ops,
                             std::size_t k) {
  std::ofstream f(path);
  if (!f) return false;
  write_explain_json(f, label, ops, k);
  return f.good();
}

}  // namespace ordma::obs
