#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

const LayerRow* LayerTable::find(std::string_view name) const {
  for (const LayerRow& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

double LayerTable::self_ns(std::string_view name) const {
  const LayerRow* r = find(name);
  return r == nullptr ? 0.0 : r->self_ns;
}

double LayerTable::calls(std::string_view name) const {
  const LayerRow* r = find(name);
  return r == nullptr ? 0.0 : static_cast<double>(r->calls);
}

std::uint32_t SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<double> SpanLog::self_ns() const {
  // Children grouped by parent; a parent's covered time is the union of its
  // children's intervals clipped to its own.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    out[i] = static_cast<double>(s.duration() - covered);
  }
  return out;
}

LayerTable SpanLog::table(std::uint64_t wall_start_ns,
                          std::uint64_t wall_end_ns) const {
  LayerTable t;
  t.wall_ns = static_cast<double>(wall_end_ns - wall_start_ns);
  const std::vector<double> self = self_ns();
  std::vector<std::int64_t> row_of(names_.size(), -1);
  double self_sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (row_of[s.name] < 0) {
      row_of[s.name] = static_cast<std::int64_t>(t.rows.size());
      t.rows.push_back({names_[s.name], 0, 0.0, 0.0});
    }
    LayerRow& r = t.rows[row_of[s.name]];
    ++r.calls;
    r.self_ns += self[i];
    r.total_ns += static_cast<double>(s.duration());
    self_sum += self[i];
  }
  t.residual_ns = t.wall_ns - self_sum;
  return t;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  const std::vector<double> self = self_ns();
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  char line[512];
  for (std::size_t i = 0; i < std::min(spans_.size(), kMaxJsonlSpans); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"trace\":%llu,\"id\":%zu,\"parent\":%lld,"
                  "\"start_ns\":%llu,\"end_ns\":%llu,\"self_ns\":%.0f}\n",
                  names_[s.name].c_str(),
                  static_cast<unsigned long long>(s.trace), i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.start_ns - origin),
                  static_cast<unsigned long long>(s.end_ns - origin), self[i]);
    out << line;
  }
}

std::string render_table(const std::string& title, const LayerTable& table) {
  std::string out = "layer table: " + title + "\n";
  char line[256];
  std::snprintf(line, sizeof line, "  %-34s %10s %12s %12s %7s\n", "span",
                "calls", "self_ms", "self_ns/call", "share");
  out += line;
  const double wall = table.wall_ns > 0.0 ? table.wall_ns : 1.0;
  for (const LayerRow& r : table.rows) {
    std::snprintf(line, sizeof line, "  %-34s %10zu %12.3f %12.1f %6.2f%%\n",
                  r.name.c_str(), r.calls, r.self_ns * 1e-6,
                  r.calls > 0 ? r.self_ns / static_cast<double>(r.calls) : 0.0,
                  100.0 * r.self_ns / wall);
    out += line;
  }
  std::snprintf(line, sizeof line, "  %-34s %10s %12.3f %12s %6.2f%%\n",
                "(residual: under no span)", "", table.residual_ns * 1e-6, "",
                100.0 * table.residual_ns / wall);
  out += line;
  std::snprintf(line, sizeof line, "  %-34s %10s %12.3f\n", "traced wall", "",
                table.wall_ns * 1e-6);
  out += line;
  return out;
}

}  // namespace perfbench
