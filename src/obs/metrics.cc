#include "obs/metrics.h"

#include <ostream>

#include "obs/json.h"

namespace ordma::obs {

void install(MetricsRegistry* r) { tls().registry = r; }

MetricsRegistry::~MetricsRegistry() {
  if (tls().registry == this) install(nullptr);
}

Counter& MetricsRegistry::counter(const std::string& path) {
  Entry& e = entries_[path];
  if (!e.c) e.c = std::make_unique<Counter>();
  return *e.c;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& path) {
  Entry& e = entries_[path];
  if (!e.h) e.h = std::make_unique<LatencyHistogram>();
  return *e.h;
}

void MetricsRegistry::histogram_view(const std::string& path,
                                     const LatencyHistogram* h) {
  entries_[path].hv = h;
}

void MetricsRegistry::gauge(const std::string& path,
                            std::function<double()> fn, bool cumulative) {
  Entry& e = entries_[path];
  e.g = std::move(fn);
  e.g_cumulative = cumulative;
}

void MetricsRegistry::delta_snapshot(DeltaCursor& cursor,
                                     std::vector<Delta>& out) const {
  out.clear();
  for (const auto& [path, e] : entries_) {
    Delta d;
    d.path = &path;
    DeltaCursor::Base& base = cursor.base[path];
    if (e.g) {
      const double v = e.g();
      if (e.g_cumulative) {
        d.kind = Kind::cumulative_gauge;
        d.value = v - base.value;
        base.value = v;
      } else {
        d.kind = Kind::gauge;
        d.value = v;
      }
    } else if (e.c) {
      d.kind = Kind::counter;
      const double v = static_cast<double>(e.c->get());
      d.value = v - base.value;
      base.value = v;
    } else if (const LatencyHistogram* h = e.hist()) {
      d.kind = Kind::histogram;
      const double sum = h->sum_us();
      d.h_sum_us = sum - base.h_sum_us;
      base.h_sum_us = sum;
      std::uint64_t count = 0;
      for (std::size_t b = 0; b < LatencyHistogram::bucket_count(); ++b) {
        const std::uint64_t n = h->bucket_value(b);
        d.h_buckets[b] = n - base.h_buckets[b];
        base.h_buckets[b] = n;
        count += d.h_buckets[b];
      }
      d.value = static_cast<double>(count);
    } else {
      continue;  // placeholder entry with no instrument yet
    }
    out.push_back(d);
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  // Nest '/'-separated paths into an object tree. std::map keeps both the
  // tree and the output deterministic.
  struct Node {
    std::map<std::string, Node> kids;
    const Entry* leaf = nullptr;
  };
  Node root;
  for (const auto& [path, entry] : entries_) {
    Node* n = &root;
    std::size_t start = 0;
    for (;;) {
      const auto slash = path.find('/', start);
      const std::string part =
          path.substr(start, slash == std::string::npos ? std::string::npos
                                                        : slash - start);
      n = &n->kids[part];
      if (slash == std::string::npos) break;
      start = slash + 1;
    }
    n->leaf = &entry;
  }

  auto emit_entry = [&](const Entry& e) {
    const LatencyHistogram* h = e.hist();
    if (e.g) {
      json::number(os, e.g(), 6);
    } else if (e.c) {
      os << e.c->get();
    } else if (h) {
      os << R"({"count":)" << h->count() << R"(,"mean_us":)";
      json::number(os, h->mean_us(), 6);
      os << R"(,"max_us":)";
      json::number(os, h->max_us(), 6);
      os << R"(,"buckets":[)";
      bool first = true;
      for (std::size_t b = 0; b < LatencyHistogram::bucket_count(); ++b) {
        if (h->bucket_value(b) == 0) continue;
        if (!first) os << ",";
        first = false;
        os << R"({"le_us":)";
        json::number(os, LatencyHistogram::upper_edge_us(b), 6);
        os << R"(,"n":)" << h->bucket_value(b);
        // Exemplar: the most recent *retained* trace op that landed in
        // this bucket — the p99-bucket-to-trace hop (obs/sampler.h).
        if (h->bucket_exemplar(b) != 0) {
          os << R"(,"exemplar":)" << h->bucket_exemplar(b);
        }
        os << "}";
      }
      os << "]}";
    } else {
      os << "null";
    }
  };

  auto emit_node = [&](auto&& self, const Node& n) -> void {
    if (n.leaf) {
      emit_entry(*n.leaf);
      return;
    }
    os << "{";
    bool first = true;
    for (const auto& [name, kid] : n.kids) {
      if (!first) os << ",";
      first = false;
      os << "\"";
      json::escaped(os, name);
      os << "\":";
      self(self, kid);
    }
    os << "}";
  };
  emit_node(emit_node, root);
  os << "\n";
}

}  // namespace ordma::obs
