// In-memory span log for the traced run (choosing-metrics guide §4).
//
// The benchmark records a span around each call it makes into a library
// layer: name, start, end and parent, with every span of one frame or
// mission sharing a trace id. Spans stay in memory and are written as JSONL
// once the run ends. A layer's self time is its span's duration minus the
// part of that interval its child spans cover; the layer table sums self
// time by span name and reconciles it with the traced wall time, printing
// the residual (time under no span) instead of hiding it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::uint32_t name = 0;   // SpanLog::intern() index
  std::uint64_t trace = 0;  // frame or mission id
  std::int64_t parent = -1; // index of the parent span, -1 for a root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t duration() const { return end_ns - start_ns; }
};

struct LayerRow {
  std::string name;
  std::size_t calls = 0;
  double self_ns = 0.0;   // summed self time
  double total_ns = 0.0;  // summed span durations
};

struct LayerTable {
  std::vector<LayerRow> rows;  // first-seen order
  double wall_ns = 0.0;        // the traced interval
  double residual_ns = 0.0;    // wall − Σ self: time under no span
  const LayerRow* find(std::string_view name) const;
  double self_ns(std::string_view name) const;
  double calls(std::string_view name) const;
};

class SpanLog {
 public:
  std::uint32_t intern(std::string_view name);
  const std::vector<Span>& spans() const { return spans_; }

  // Opens a span now; close it with end(). Returns its index.
  std::int64_t begin(std::uint32_t name, std::uint64_t trace,
                     std::int64_t parent = -1) {
    spans_.push_back({name, trace, parent, now_ns(), 0});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void end(std::int64_t span) { spans_[span].end_ns = now_ns(); }
  std::int64_t add(const Span& span) {
    spans_.push_back(span);
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  // Self time of every span, index-aligned with spans().
  std::vector<double> self_ns() const;

  // Self time summed by name over [wall_start_ns, wall_end_ns].
  LayerTable table(std::uint64_t wall_start_ns,
                   std::uint64_t wall_end_ns) const;

  // One JSON object per span: name, trace, id, parent, start/end (ns,
  // relative to the first span), self_ns. Only the first kMaxJsonlSpans
  // spans are written, which keeps a file near 50 MB; the layer table
  // always covers every span.
  static constexpr std::size_t kMaxJsonlSpans = 500'000;
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// Human-readable table with the residual line.
std::string render_table(const std::string& title, const LayerTable& table);

}  // namespace perfbench
