// Supervisor-side aggregation of the live telemetry plane: one atomic
// `status.json` snapshot per run directory, derived from the same files
// that make campaigns crash-resilient — checkpoints are the ground truth
// for progress, heartbeats for per-worker liveness, telemetry streams for
// rates, rusage and the fleet-wide detector-step latency distribution
// (docs/OBSERVABILITY.md "Live campaign telemetry").
//
// build_status() reads only the run directory, so a status can be computed
// by the supervisor mid-run, by `roboads_shard watch --manifest=...` after
// the supervisor died, or by CI against a finished run — all three agree
// because none of them trusts anything but the files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "shard/manifest.h"

namespace roboads::shard {

// One worker label's row in the monitor.
struct WorkerStatus {
  std::string label;
  // Seconds since the last heartbeat; -1 = no heartbeat file yet.
  double heartbeat_age_seconds = -1.0;
  std::uint64_t jobs_done = 0;  // outcome lines in this label's checkpoint
  // From the heartbeat payload (this worker instance).
  std::uint64_t instance_jobs_done = 0;
  std::string last_job;
  double last_job_unix_time = 0.0;
  std::string current_job;
  // From the latest telemetry record of the latest instance.
  double rate_jobs_per_second = 0.0;
  double max_rss_kb = 0.0;
};

// The JSON fields of status.json (obs/jsonl.h), in line order.
template <class V>
void visit_fields(WorkerStatus& w, V& v) {
  v("label", w.label);
  v("heartbeat_age_s", w.heartbeat_age_seconds);
  v("jobs_done", w.jobs_done);
  v("instance_jobs_done", w.instance_jobs_done);
  v("last_job", w.last_job);
  v("last_job_unix_time", w.last_job_unix_time);
  v("current_job", w.current_job);
  v("rate_jobs_per_s", w.rate_jobs_per_second);
  v("max_rss_kb", w.max_rss_kb);
}

// Counters only the live supervisor knows (zero when a status is built
// offline from files alone).
struct SupervisionCounters {
  std::uint64_t launches = 0;
  std::uint64_t crashes = 0;
  std::uint64_t hangs = 0;
  std::uint64_t lost_shards = 0;
  std::uint64_t salvage_workers = 0;
  std::uint64_t slow_job_grants = 0;  // watchdog grace periods granted
};

// Flat in the status line, between the rates and the histogram.
template <class V>
void visit_fields(SupervisionCounters& c, V& v) {
  v("launches", c.launches);
  v("crashes", c.crashes);
  v("hangs", c.hangs);
  v("lost_shards", c.lost_shards);
  v("salvage_workers", c.salvage_workers);
  v("slow_job_grants", c.slow_job_grants);
}

struct RunStatus {
  double unix_time = 0.0;
  std::uint64_t total_jobs = 0;
  // Progress, from the deduplicated checkpoint outcomes (the ground truth
  // the merged report is built from).
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  bool complete = false;
  double progress = 0.0;  // completed / total_jobs (0 when empty manifest)
  // Supervisor wall-clock seconds (0 when built offline).
  double elapsed_seconds = 0.0;
  // Fleet completion rate (sum of live worker rates) and the derived ETA;
  // eta_seconds < 0 means unknown (no rate yet, or already complete).
  double rate_jobs_per_second = 0.0;
  double eta_seconds = -1.0;
  SupervisionCounters counters;
  // Fleet-wide engine.step_ns distribution: every worker instance's
  // snapshot merged exactly (obs::HistogramSnapshot::merge).
  obs::HistogramSnapshot step_latency;
  std::vector<WorkerStatus> workers;  // label order
};

// A version bump goes with any change here (docs/OBSERVABILITY.md).
template <class V>
void visit_fields(RunStatus& s, V& v) {
  obs::json::schema_tag(v, "status", "roboads-shard-status", 1);
  v("unix_time", s.unix_time);
  v("jobs", s.total_jobs);
  v("completed", s.completed);
  v("ok", s.ok);
  v("failed", s.failed);
  v("violations", s.violations);
  v("complete", s.complete);
  v("progress", s.progress);
  v("elapsed_s", s.elapsed_seconds);
  v("rate_jobs_per_s", s.rate_jobs_per_second);
  v("eta_s", s.eta_seconds);
  visit_fields(s.counters, v);
  v("step_latency", s.step_latency);
  v("workers", s.workers);
}

// A worker whose heartbeat is older than this is excluded from the fleet
// completion rate (it is dead, stopped, or between retries; counting it
// would inflate the ETA's denominator). The threshold scales with the
// configured heartbeat/telemetry cadence — a worker legitimately beating
// every 15 s must not be declared dead at 10 s — with a floor for fast
// cadences so one missed beat isn't a death sentence.
// `heartbeat_interval_seconds <= 0` selects the floor alone.
double live_heartbeat_threshold_seconds(double heartbeat_interval_seconds);

// Computes a status from the run directory's files. Tolerates torn
// telemetry/heartbeat tails (never repairs — sibling processes may be
// writing); throws only on real mid-file corruption.
// `heartbeat_interval_seconds` is the cadence the run's workers were
// configured with (--telemetry-interval); it sets the liveness threshold
// via live_heartbeat_threshold_seconds.
RunStatus build_status(const Manifest& manifest, const std::string& dir,
                       const SupervisionCounters& counters = {},
                       double elapsed_seconds = 0.0,
                       double heartbeat_interval_seconds = 0.0);

// Single-line JSON round-trip (byte-stable through write→parse→write).
std::string serialize_status(const RunStatus& status);
RunStatus parse_status(const std::string& line);

std::string status_path(const std::string& dir);  // <dir>/status.json

// Atomic publish: write <path>.tmp, rename over <path> — readers never see
// a partial snapshot.
void write_status_file(const std::string& path, const RunStatus& status);
// Throws CheckError when missing/unreadable.
RunStatus read_status_file(const std::string& path);

// The `roboads_shard watch` terminal rendering: progress bar, fleet
// latency quantiles, per-worker rows.
std::string render_status(const RunStatus& status);

}  // namespace roboads::shard
