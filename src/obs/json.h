// JSON emission primitives — string escaping and round-trip number
// formatting — shared by the trace sink, the metrics snapshot writer and
// every JSONL schema. The matching parser, and the field visitors that
// drive both directions from one field list, live in obs/jsonl.h.
#pragma once

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>

namespace roboads::obs::json {

// Escapes a string for inclusion inside JSON double quotes.
inline void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// JSON has no NaN/Inf literal; non-finite values serialize as null so every
// emitted line stays parseable (a -inf log-likelihood is a *legitimate*
// value in a quarantine trace, not an encoding error).
inline void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  // Round-trip precision; integral values print without an exponent so the
  // common case (iterations, indices, masks) stays human-readable. The
  // magnitude test comes first: casting a double beyond long long's range
  // is undefined.
  if (std::abs(v) < 1e15 && v == std::trunc(v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    os << buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace roboads::obs::json
