#include "shard/telemetry.h"

#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>

#include "obs/jsonl.h"
#include "obs/timer.h"
#include "shard/heartbeat.h"
#include "shard/manifest.h"

namespace roboads::shard {
namespace {

namespace json = obs::json;
namespace fs = std::filesystem;

// The stream's first line; a version bump goes with any change to the
// record's fields.
template <class V>
void visit_header(V& v) {
  json::schema_tag(v, "telemetry-header", "roboads-shard-telemetry", 1);
}

double monotonic_seconds() { return 1e-9 * obs::monotonic_ns(); }

}  // namespace

std::string serialize_telemetry(const TelemetryRecord& record) {
  return json::record_line(record);
}

TelemetryRecord parse_telemetry(const std::string& line, std::size_t line_no) {
  return json::parse_record<TelemetryRecord>(
      line, "telemetry line " + std::to_string(line_no));
}

std::vector<TelemetryRecord> read_telemetry_file(const std::string& path,
                                                 bool repair) {
  std::vector<TelemetryRecord> records;
  bool saw_header = false;
  json::read_jsonl_tail_tolerant(
      path,
      [&](const std::string& line, std::size_t line_no) {
        if (!saw_header) {
          const std::string context =
              "telemetry line " + std::to_string(line_no);
          json::read_object(
              json::Fields(json::parse_object_line(line, context), context),
              [](json::FieldReader& v) { visit_header(v); });
          saw_header = true;
        } else {
          records.push_back(parse_telemetry(line, line_no));
        }
      },
      repair,
      [&](const std::exception& e) {
        throw ManifestError(path + ": corrupt telemetry (" + e.what() + ")");
      });
  return records;
}

std::string telemetry_path(const std::string& dir, const std::string& label) {
  return dir + "/telemetry-" + label + ".jsonl";
}

TelemetryStream::TelemetryStream(const std::string& dir,
                                 const std::string& label,
                                 double interval_seconds,
                                 obs::MetricsRegistry* metrics)
    : interval_seconds_(interval_seconds), metrics_(metrics) {
  if (interval_seconds_ <= 0.0) return;
  const std::string path = telemetry_path(dir, label);
  // Repair our own torn tail (a previous instance killed mid-append), like
  // the worker does for its checkpoint. Sibling streams are left alone.
  read_telemetry_file(path, /*repair=*/true);
  const bool fresh = !fs::exists(path) || fs::file_size(path) == 0;
  os_.open(path, fresh ? std::ios::binary : std::ios::binary | std::ios::app);
  if (!os_) return;  // telemetry is best-effort: never fail the worker
  if (fresh) {
    json::write_object(os_, [](json::FieldWriter& v) { visit_header(v); });
    os_ << '\n';
    os_.flush();
  }
  enabled_ = true;
  started_monotonic_ = monotonic_seconds();
  last_append_monotonic_ = started_monotonic_;
  record_.label = label;
  record_.instance = static_cast<std::int64_t>(getpid());
}

void TelemetryStream::set_jobs_assigned(std::uint64_t n) {
  record_.jobs_assigned = n;
}

void TelemetryStream::job_finished(const JobOutcome& outcome) {
  if (!enabled_) return;
  ++record_.jobs_done;
  TelemetryGroupTally& tally = record_.groups[outcome.group];
  ++tally.done;
  if (outcome.status == "ok") ++tally.ok;
  if (outcome.status == "failed") ++tally.failed;
  if (outcome.status == "violation") ++tally.violations;
  if (outcome.sensor_tp + outcome.sensor_fp + outcome.actuator_tp +
          outcome.actuator_fp >
      0) {
    ++tally.alarms;
  }
  if (monotonic_seconds() - last_append_monotonic_ >= interval_seconds_) {
    append_record();
  }
}

void TelemetryStream::flush() {
  if (!enabled_) return;
  append_record();
}

void TelemetryStream::append_record() {
  const double now = monotonic_seconds();
  record_.unix_time = unix_now_seconds();
  record_.elapsed_seconds = now - started_monotonic_;
  if (metrics_ != nullptr) {
    record_.step_latency =
        metrics_->histogram("engine.step_ns").snapshot();
  }
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    record_.max_rss_kb = static_cast<double>(usage.ru_maxrss);
    record_.user_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                           1e-6 * static_cast<double>(usage.ru_utime.tv_usec);
    record_.system_seconds =
        static_cast<double>(usage.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(usage.ru_stime.tv_usec);
  }
  os_ << serialize_telemetry(record_) << '\n';
  os_.flush();
  ++record_.seq;
  last_append_monotonic_ = now;
}

}  // namespace roboads::shard
