// Per-worker telemetry streams: the worker half of the live campaign
// telemetry plane (docs/OBSERVABILITY.md "Live campaign telemetry").
//
// Each worker appends periodic JSONL records — jobs done, per-group
// outcome tallies, a mergeable detector-step latency histogram snapshot,
// and rusage — to `telemetry-<label>.jsonl` next to its checkpoint. The
// file shares the checkpoint's crash model: append-only, flushed per
// record, at most one torn final line after a SIGKILL, repaired/skipped by
// the same torn-tail-tolerant reader (obs/jsonl.h). Unlike checkpoints,
// telemetry never feeds results: the merged report is derived from
// checkpoints alone, so a lost telemetry tail costs staleness, not
// correctness.
//
// Records are *per worker instance* (keyed by pid): a retried worker
// starts its own counters at zero, and aggregation takes the last record
// of every instance and merges — exactly where the histogram snapshots'
// exact mergeability pays off (obs::HistogramSnapshot).
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "shard/checkpoint.h"

namespace roboads::shard {

// Outcome tallies for one replication group, as seen by one worker
// instance.
struct TelemetryGroupTally {
  std::uint64_t done = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  std::uint64_t alarms = 0;  // jobs with any sensor/actuator positive
};

// The JSON fields of telemetry record lines (obs/jsonl.h), in line order.
template <class V>
void visit_fields(TelemetryGroupTally& t, V& v) {
  v("done", t.done);
  v("ok", t.ok);
  v("failed", t.failed);
  v("violations", t.violations);
  v("alarms", t.alarms);
}

struct TelemetryRecord {
  std::string label;          // worker label (s0, v1-2)
  std::int64_t instance = 0;  // pid of the writing worker instance
  std::uint64_t seq = 0;      // per-instance sequence number, from 0
  double unix_time = 0.0;     // CLOCK_REALTIME at append
  double elapsed_seconds = 0.0;  // since this instance started
  std::uint64_t jobs_assigned = 0;  // handed to this instance at launch
  std::uint64_t jobs_done = 0;      // completed by this instance
  std::map<std::string, TelemetryGroupTally> groups;
  obs::HistogramSnapshot step_latency;  // engine.step_ns, this instance
  // getrusage(RUSAGE_SELF) at append.
  double max_rss_kb = 0.0;
  double user_seconds = 0.0;
  double system_seconds = 0.0;

  // This instance's completion rate; 0 until time has passed.
  double jobs_per_second() const {
    return elapsed_seconds > 0.0 ? jobs_done / elapsed_seconds : 0.0;
  }
};

template <class V>
void visit_fields(TelemetryRecord& r, V& v) {
  v.expect("event", "telemetry");
  v("label", r.label);
  v("instance", r.instance);
  v("seq", r.seq);
  v("unix_time", r.unix_time);
  v("elapsed_s", r.elapsed_seconds);
  v("jobs_assigned", r.jobs_assigned);
  v("jobs_done", r.jobs_done);
  v("groups", r.groups, "group");
  v("step_latency", r.step_latency);
  v("max_rss_kb", r.max_rss_kb);
  v("user_s", r.user_seconds);
  v("system_s", r.system_seconds);
}

std::string serialize_telemetry(const TelemetryRecord& record);
TelemetryRecord parse_telemetry(const std::string& line, std::size_t line_no);

// Reads every record of one stream, tolerating (and with `repair` also
// truncating) a torn final line; corruption earlier in the file throws
// ManifestError. A missing file reads as empty.
std::vector<TelemetryRecord> read_telemetry_file(const std::string& path,
                                                 bool repair);

std::string telemetry_path(const std::string& dir, const std::string& label);

// The worker-side appender. Owns the stream file: repairs its own torn
// tail on construction, appends the versioned header if fresh, then emits
// one record per `interval_seconds` (checked on job boundaries) plus one
// final record from flush(). interval_seconds <= 0 disables everything —
// every call becomes a no-op and no file is created.
class TelemetryStream {
 public:
  TelemetryStream(const std::string& dir, const std::string& label,
                  double interval_seconds, obs::MetricsRegistry* metrics);

  void set_jobs_assigned(std::uint64_t n);
  // Folds one completed job's outcome into the tallies and appends a
  // record if the interval has elapsed.
  void job_finished(const JobOutcome& outcome);
  // Unconditionally appends a record (start-of-run and end-of-run marks).
  void flush();

  bool enabled() const { return enabled_; }

 private:
  void append_record();

  bool enabled_ = false;
  double interval_seconds_ = 0.0;
  double started_monotonic_ = 0.0;
  double last_append_monotonic_ = 0.0;
  obs::MetricsRegistry* metrics_ = nullptr;
  TelemetryRecord record_;  // running state; seq advances per append
  std::ofstream os_;
};

}  // namespace roboads::shard
