// The one JSON string escaper and number writer. Every obs document
// (metrics, timeseries, health, trace, explain) escapes its strings here,
// and metrics, timeseries and health print their numbers here, so escaping
// and number formatting change in one place.
#pragma once

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string_view>

namespace ordma::obs::json {

// Write `s` as the body of a JSON string (no surrounding quotes): '"' and
// '\\' are backslash-escaped, control characters become \u00XX.
inline void escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
}

// Write `v` with `digits` significant digits (printf %g); NaN and the
// infinities, which JSON cannot represent, as null.
inline void number(std::ostream& os, double v, int digits) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  os << buf;
}

}  // namespace ordma::obs::json
