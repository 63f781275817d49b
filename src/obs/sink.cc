#include "obs/sink.h"

#include <fstream>
#include <iterator>
#include <ostream>

#include "common/assert.h"
#include "common/tls_ctx.h"
#include "obs/json.h"

namespace ordma::obs {

void Sink::add(const std::string& label, std::string doc) {
  if (layout_ == Layout::object) {
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
      doc.pop_back();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = label;
  for (int n = 2; docs_.count(key) != 0; ++n) {
    key = label + "#" + std::to_string(n);
  }
  docs_.emplace(std::move(key), std::move(doc));
}

std::size_t Sink::runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return docs_.size();
}

std::string Sink::doc(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  ORDMA_CHECK(i < docs_.size());
  return std::next(docs_.begin(), static_cast<std::ptrdiff_t>(i))->second;
}

void Sink::write(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (layout_ == Layout::blocks) {
    for (const auto& [label, d] : docs_) os << d;
    return;
  }
  const bool object = layout_ == Layout::object;
  os << (object ? R"({"schema":"ordma.metrics.v1","runs":{)" : "[");
  bool first = true;
  for (const auto& [label, d] : docs_) {
    os << (first ? "\n" : ",\n");
    first = false;
    if (object) {
      os << '"';
      json::escaped(os, label);
      os << "\":";
    }
    os << d;
  }
  if (!docs_.empty()) os << "\n";
  os << (object ? "}}" : "]") << "\n";
}

bool Sink::write_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write(f);
  return f.good();
}

namespace {
SinkSet* g_sinks = nullptr;
}  // namespace

SinkSet::~SinkSet() {
  if (tls().sinks == this) tls().sinks = nullptr;
  if (g_sinks == this) g_sinks = nullptr;
}

SinkSet* sinks() {
  SinkSet* s = tls().sinks;
  return s != nullptr ? s : g_sinks;
}

void install_sinks(SinkSet* s) { tls().sinks = s; }
void install_global_sinks(SinkSet* s) { g_sinks = s; }

}  // namespace ordma::obs
