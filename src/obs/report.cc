#include "obs/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "obs/jsonl.h"

namespace roboads::obs {
namespace {

constexpr char kModeSelectedPrefix[] = "engine.mode_selected.";

std::string fmt_ns(double ns) { return format_duration_ns(ns); }

bool has_prefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// The shared strict-read contract behind both offline formats: any
// condition that would render as a silently empty report throws instead.
std::vector<std::string> read_strict_lines(const std::string& path,
                                           const std::string& label) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw CheckError(path + ": cannot open " + label + " file (missing or "
                     "unreadable)");
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) {
    throw CheckError(path + ": " + label + " file is empty — the producing "
                     "run wrote nothing (did it finish?)");
  }
  if (text.back() != '\n') {
    throw CheckError(path + ": " + label + " file is truncated (final line "
                     "has no newline — the producing run was cut off "
                     "mid-write)");
  }
  std::vector<std::string> lines;
  std::size_t offset = 0;
  while (offset < text.size()) {
    const std::size_t newline = text.find('\n', offset);
    lines.push_back(text.substr(offset, newline - offset));
    offset = newline + 1;
    if (lines.back().empty()) {
      throw CheckError(path + " line " + std::to_string(lines.size()) +
                       ": blank line in " + label + " file (truncated or "
                       "corrupt)");
    }
  }
  return lines;
}

}  // namespace

std::string format_duration_ns(double ns) {
  char buf[32];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

std::string render_report(const MetricsRegistry& registry) {
  return render_report(registry.snapshot());
}

std::string render_report(const std::vector<MetricSample>& samples) {
  std::ostringstream os;
  os << "== roboads_report "
        "==============================================\n";

  // --- Timers, by total recorded time. ---
  std::vector<const MetricSample*> timers;
  for (const MetricSample& s : samples) {
    if (s.kind == MetricSample::Kind::kHistogram && s.value > 0) {
      timers.push_back(&s);
    }
  }
  std::sort(timers.begin(), timers.end(),
            [](const MetricSample* a, const MetricSample* b) {
              return a->sum != b->sum ? a->sum > b->sum : a->name < b->name;
            });
  os << "-- timers (by total time) --\n";
  if (timers.empty()) os << "  (none recorded)\n";
  for (const MetricSample* t : timers) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-34s n=%-8.0f total=%-10s mean=%-9s p50<=%-9s "
                  "p95<=%-9s p99<=%-9s max=%s\n",
                  t->name.c_str(), t->value, fmt_ns(t->sum).c_str(),
                  fmt_ns(t->mean).c_str(), fmt_ns(t->p50).c_str(),
                  fmt_ns(t->p95).c_str(), fmt_ns(t->p99).c_str(),
                  fmt_ns(t->max).c_str());
    os << line;
  }

  // --- Mode-selection histogram. ---
  std::vector<const MetricSample*> selections;
  double selection_total = 0.0;
  for (const MetricSample& s : samples) {
    if (s.kind == MetricSample::Kind::kCounter &&
        has_prefix(s.name, kModeSelectedPrefix)) {
      selections.push_back(&s);
      selection_total += s.value;
    }
  }
  if (!selections.empty()) {
    os << "-- mode selections --\n";
    for (const MetricSample* s : selections) {
      const double share =
          selection_total > 0 ? s->value / selection_total : 0.0;
      const int bar = static_cast<int>(share * 40.0 + 0.5);
      char line[256];
      std::snprintf(line, sizeof(line), "  %-34s %8.0f  %5.1f%% |%.*s\n",
                    s->name.c_str() + sizeof(kModeSelectedPrefix) - 1,
                    s->value, 100.0 * share, bar,
                    "########################################");
      os << line;
    }
  }

  // --- Remaining counters (fault/quarantine/alarm tallies). ---
  os << "-- counters --\n";
  bool any_counter = false;
  for (const MetricSample& s : samples) {
    if (s.kind != MetricSample::Kind::kCounter ||
        has_prefix(s.name, kModeSelectedPrefix)) {
      continue;
    }
    any_counter = true;
    char line[256];
    std::snprintf(line, sizeof(line), "  %-44s %12.0f\n", s.name.c_str(),
                  s.value);
    os << line;
  }
  if (!any_counter) os << "  (none recorded)\n";

  // --- Gauges. ---
  bool any_gauge = false;
  for (const MetricSample& s : samples) {
    if (s.kind != MetricSample::Kind::kGauge) continue;
    if (!any_gauge) os << "-- gauges --\n";
    any_gauge = true;
    char line[256];
    std::snprintf(line, sizeof(line), "  %-44s %12g\n", s.name.c_str(),
                  s.value);
    os << line;
  }

  os << "===============================================================\n";
  return os.str();
}

std::vector<MetricSample> load_metrics_jsonl(const std::string& path) {
  const std::vector<std::string> lines = read_strict_lines(path, "metrics");
  std::vector<MetricSample> samples;
  std::size_t line_no = 0;
  for (const std::string& line : lines) {
    ++line_no;
    const std::string context = path + " line " + std::to_string(line_no);
    json::Fields f(json::parse_object_line(line, context), context);
    MetricSample s;
    s.name = f.string("metric");
    const std::string& kind = f.string("kind");
    if (kind == "counter") {
      s.kind = MetricSample::Kind::kCounter;
    } else if (kind == "gauge") {
      s.kind = MetricSample::Kind::kGauge;
    } else if (kind == "histogram") {
      s.kind = MetricSample::Kind::kHistogram;
    } else {
      throw CheckError(context + ": unknown metric kind '" + kind + "'");
    }
    json::FieldReader values(f);
    visit_sample_values(s, values);
    samples.push_back(std::move(s));
  }
  return samples;
}

void write_named_histogram(std::ostream& os, const std::string& name,
                           const HistogramSnapshot& histogram) {
  json::write_object(os, [&](json::FieldWriter& v) {
    v("name", name);
    v("histogram", histogram);
  });
}

std::vector<NamedHistogram> load_histograms_jsonl(const std::string& path) {
  const std::vector<std::string> lines = read_strict_lines(path, "histogram");
  std::vector<NamedHistogram> histograms;
  std::size_t line_no = 0;
  for (const std::string& line : lines) {
    ++line_no;
    const std::string context = path + " line " + std::to_string(line_no);
    json::Fields f(json::parse_object_line(line, context), context);
    NamedHistogram h;
    if (f.has("histogram")) {
      h.name = f.string("name");
      h.histogram = parse_histogram(f.object("histogram"));
    } else if (f.has("bounds")) {
      // A bare write_histogram object; name it by position.
      h.name = "histogram[" + std::to_string(line_no) + "]";
      h.histogram = parse_histogram(f);
    } else {
      throw CheckError(context + ": not a histogram-snapshot line (expected "
                       "a 'histogram' or 'bounds' key)");
    }
    histograms.push_back(std::move(h));
  }
  return histograms;
}

std::string render_histograms(const std::vector<NamedHistogram>& histograms) {
  std::ostringstream os;
  os << "== roboads_report (histograms) "
        "================================\n";
  if (histograms.empty()) os << "  (none recorded)\n";
  for (const NamedHistogram& h : histograms) {
    const HistogramSnapshot& s = h.histogram;
    const bool ns = h.name.size() >= 3 &&
                    h.name.compare(h.name.size() - 3, 3, "_ns") == 0;
    const auto fmt = [&](double v) {
      if (ns) return fmt_ns(v);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", v);
      return std::string(buf);
    };
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-34s n=%-8llu mean=%-9s p50<=%-9s p99<=%-9s "
                  "max=%-9s ci95=±%s\n",
                  h.name.c_str(), static_cast<unsigned long long>(s.count),
                  fmt(s.mean()).c_str(), fmt(s.quantile(0.50)).c_str(),
                  fmt(s.quantile(0.99)).c_str(), fmt(s.max).c_str(),
                  fmt(s.ci95_half_width()).c_str());
    os << line;
  }
  os << "===============================================================\n";
  return os.str();
}

std::string render_report_file(const std::string& path) {
  const std::vector<std::string> lines = read_strict_lines(path, "report");
  const std::string context = path + " line 1";
  json::Fields first(json::parse_object_line(lines.front(), context),
                     context);
  if (first.has("histogram") || first.has("bounds")) {
    return render_histograms(load_histograms_jsonl(path));
  }
  return render_report(load_metrics_jsonl(path));
}

}  // namespace roboads::obs
