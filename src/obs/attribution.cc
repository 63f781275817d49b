#include "obs/attribution.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "obs/sweep.h"

namespace ordma::obs {

const char* category_name(Category c) {
  switch (c) {
    case Category::per_byte:
      return "per_byte";
    case Category::per_packet:
      return "per_packet";
    case Category::per_io:
      return "per_io";
    case Category::nic:
      return "nic";
    case Category::wire:
      return "wire";
    case Category::disk:
      return "disk";
    case Category::other:
      return "other";
  }
  return "?";
}

Category categorize(const char* span_name) {
  auto has = [&](const char* prefix) {
    return std::strncmp(span_name, prefix, std::strlen(prefix)) == 0;
  };
  if (has("byte/")) return Category::per_byte;
  if (has("pkt/")) return Category::per_packet;
  if (has("io/")) return Category::per_io;
  if (has("nic/")) return Category::nic;
  if (has("wire/")) return Category::wire;
  if (has("disk/")) return Category::disk;
  return Category::other;
}

double Breakdown::sum_us() const {
  double s = 0;
  for (double u : us) s += u;
  return s;
}

Breakdown& Breakdown::operator+=(const Breakdown& o) {
  for (std::size_t i = 0; i < kCategoryCount; ++i) us[i] += o.us[i];
  total_us += o.total_us;
  ops += o.ops;
  if (*root_name == '\0') root_name = o.root_name;
  return *this;
}

Breakdown Breakdown::averaged() const {
  Breakdown b = *this;
  if (ops > 1) {
    const double n = static_cast<double>(ops);
    for (double& u : b.us) u /= n;
    b.total_us /= n;
  }
  return b;
}

namespace {

// Priority when several categories are active at one instant: charge the
// deepest pipeline stage. Lower value wins; `other` (the sweep fallback)
// must stay last. Indexed by Category.
constexpr std::array<int, kCategoryCount> kPriority = {
    3,  // per_byte
    4,  // per_packet
    5,  // per_io
    2,  // nic
    1,  // wire
    0,  // disk
    6,  // other
};

}  // namespace

std::map<OpId, Breakdown> attribute(const TraceRecorder& rec) {
  std::map<OpId, Breakdown> result;
  sweep_ops(
      rec, kPriority, static_cast<std::size_t>(Category::other),
      [](const TraceRecorder::Event&, const TraceRecorder::Event& leaf) {
        return categorize(leaf.name);
      },
      [&](OpId op, const TraceRecorder::Event& root,
          const std::array<double, kCategoryCount>& us) {
        Breakdown& out = result[op];
        out.root_name = root.name;
        out.total_us =
            static_cast<double>(root.end_ns - root.begin_ns) / 1000.0;
        std::copy(us.begin(), us.end(), out.us);
      });
  return result;
}

}  // namespace ordma::obs
