// Fleet introspection plane: the live fleet_status.json snapshot, the
// `roboads_fleet top` renderer, and the advisory rebalance-hint policy
// (docs/OBSERVABILITY.md "Fleet introspection", docs/FLEET.md).
//
// The service builds a FleetStatusSnapshot between pump passes — the only
// moment per-robot session counters and reorder-window occupancy are
// readable without racing the shard workers — and publishes it atomically
// (write <path>.tmp, rename), the same reader-never-sees-a-partial-file
// discipline as the shard supervisor's status.json (shard/status.cc).
//
// Serialization is single-line JSON with round-trip-precision numbers,
// driven by the visit_fields lists below (obs/jsonl.h), so
// serialize → parse → serialize is byte-stable: `roboads_fleet top --once
// --json` re-emits exactly the published line, and the per-shard latency
// histograms embed obs::write_histogram output, whose merge algebra the
// fleet-level histograms are provably the exact fold of
// (tests/fleet_introspect_test.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roboads::fleet {

// Introspection knobs carried inside FleetConfig. Everything defaults off:
// the service pays nothing beyond always-on counters unless asked.
struct FleetIntrospectConfig {
  // fleet_status.json target; empty = no status publishing.
  std::string status_path;
  // Minimum seconds between pump-side publishes; <= 0 publishes on every
  // pump pass (useful in tests and short smokes).
  double status_interval_s = 1.0;
  // Span sampling: every N-th robot (id % N == 0) emits causal spans into
  // `span_sink`. 0 = tracing off. Requires span_sink when non-zero.
  std::size_t trace_sample = 0;
  obs::TraceSink* span_sink = nullptr;
  // Hot-robot rows kept in the snapshot (ranked by EWMA step rate).
  std::size_t top_robots = 8;
  // Rolling alarm-feed length (per shard ring and merged snapshot feed).
  std::size_t alarm_feed = 16;
  // EWMA smoothing factor for rates/depths/latencies (0 < alpha <= 1).
  double ewma_alpha = 0.2;
  // A shard whose EWMA step rate exceeds hot_shard_ratio × the fleet mean
  // (and holds >= 2 sessions) emits an advisory rebalance hint.
  double hot_shard_ratio = 1.25;
};

// One shard's row in the snapshot: the ShardStatus counters plus the live
// introspection extras (ring high-water, reorder occupancy, EWMAs).
struct ShardStat {
  std::size_t shard = 0;
  std::uint64_t sessions = 0;
  std::uint64_t steps = 0;
  std::uint64_t sensor_alarms = 0;
  std::uint64_t actuator_alarms = 0;
  std::uint64_t quarantine_iterations = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t forwarded_packets = 0;
  std::size_t queue_depth = 0;       // approximate, at snapshot time
  std::size_t queue_high_water = 0;  // deepest the ring has ever been
  std::uint64_t reorder_pending = 0; // frames awaiting reassembly, summed
  double ewma_queue_depth = 0.0;
  double ewma_steps_per_s = 0.0;
  obs::HistogramSnapshot ingest_to_step_ns;
  obs::HistogramSnapshot ingest_to_alarm_ns;
};

// The JSON fields of each snapshot row (obs/jsonl.h), in line order.
template <class V>
void visit_fields(ShardStat& s, V& v) {
  v("shard", s.shard);
  v("sessions", s.sessions);
  v("steps", s.steps);
  v("sensor_alarms", s.sensor_alarms);
  v("actuator_alarms", s.actuator_alarms);
  v("quarantine_iterations", s.quarantine_iterations);
  v("dropped_packets", s.dropped_packets);
  v("forwarded_packets", s.forwarded_packets);
  v("queue_depth", s.queue_depth);
  v("queue_high_water", s.queue_high_water);
  v("reorder_pending", s.reorder_pending);
  v("ewma_queue_depth", s.ewma_queue_depth);
  v("ewma_steps_per_s", s.ewma_steps_per_s);
  v("ingest_to_step_ns", s.ingest_to_step_ns);
  v("ingest_to_alarm_ns", s.ingest_to_alarm_ns);
}

// One robot's row: the session's stream counters plus live occupancy and
// the EWMAs the hot-robot ranking orders by.
struct RobotStat {
  std::uint64_t robot = 0;
  std::size_t shard = 0;
  std::uint64_t steps = 0;
  std::uint64_t sensor_alarms = 0;
  std::uint64_t actuator_alarms = 0;
  std::uint64_t late_packets = 0;
  std::uint64_t duplicate_packets = 0;
  std::uint64_t forced_evictions = 0;
  std::uint64_t masked_steps = 0;
  std::uint64_t command_substituted = 0;
  std::uint64_t reorder_pending = 0;  // this robot's half-assembled frames
  double ewma_steps_per_s = 0.0;
  double ewma_step_latency_ns = 0.0;  // per-sample EWMA of ingest→step
  bool traced = false;                // emits spans (trace_sample hit)
};

template <class V>
void visit_fields(RobotStat& r, V& v) {
  v("robot", r.robot);
  v("shard", r.shard);
  v("steps", r.steps);
  v("sensor_alarms", r.sensor_alarms);
  v("actuator_alarms", r.actuator_alarms);
  v("late_packets", r.late_packets);
  v("duplicate_packets", r.duplicate_packets);
  v("forced_evictions", r.forced_evictions);
  v("masked_steps", r.masked_steps);
  v("command_substituted", r.command_substituted);
  v("reorder_pending", r.reorder_pending);
  v("ewma_steps_per_s", r.ewma_steps_per_s);
  v("ewma_step_latency_ns", r.ewma_step_latency_ns);
  v("traced", r.traced);
}

// Rolling alarm-feed entry.
struct FleetAlarm {
  double unix_time = 0.0;
  std::uint64_t robot = 0;
  std::uint64_t k = 0;      // control iteration that raised the alarm
  bool sensor = false;
  bool actuator = false;
  double latency_ns = 0.0;  // ingest→alarm for the frame (0 = unknown)
};

template <class V>
void visit_fields(FleetAlarm& a, V& v) {
  v("unix_time", a.unix_time);
  v("robot", a.robot);
  v("k", a.k);
  v("sensor", a.sensor);
  v("actuator", a.actuator);
  v("latency_ns", a.latency_ns);
}

// Advisory output of the hot-shard policy: "shard `from_shard` is running
// hot; its busiest robot would fit on `to_shard`". The data feed for the
// ROADMAP's dynamic rebalancer — no migration is performed.
struct RebalanceHint {
  std::uint64_t robot = 0;
  std::size_t from_shard = 0;
  std::size_t to_shard = 0;
  double from_rate = 0.0;   // hot shard's EWMA steps/s
  double to_rate = 0.0;     // target shard's EWMA steps/s
  double robot_rate = 0.0;  // the robot's own EWMA steps/s
};

template <class V>
void visit_fields(RebalanceHint& h, V& v) {
  v("robot", h.robot);
  v("from_shard", h.from_shard);
  v("to_shard", h.to_shard);
  v("from_rate", h.from_rate);
  v("to_rate", h.to_rate);
  v("robot_rate", h.robot_rate);
}

struct FleetStatusSnapshot {
  double unix_time = 0.0;
  std::uint64_t seq = 0;  // publish sequence number, 1-based
  std::uint64_t robots = 0;
  std::uint64_t steps = 0;
  std::uint64_t sensor_alarms = 0;
  std::uint64_t actuator_alarms = 0;
  std::uint64_t quarantine_iterations = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t forwarded_packets = 0;
  std::uint64_t unknown_robot_packets = 0;
  std::size_t trace_sample = 0;  // 0 = spans off
  std::uint64_t spans = 0;       // span events emitted so far
  // Exactly merge_snapshots over the shard rows' histograms — pinned by
  // tests/fleet_introspect_test.cc and the fleet-watch-smoke.
  obs::HistogramSnapshot ingest_to_step_ns;
  obs::HistogramSnapshot ingest_to_alarm_ns;
  std::vector<ShardStat> shards;       // shard order
  std::vector<RobotStat> hot_robots;   // hottest first
  std::vector<FleetAlarm> alarms;      // oldest → newest
  std::vector<RebalanceHint> hints;    // from_shard order
};

// A version bump goes with any change here (docs/OBSERVABILITY.md).
template <class V>
void visit_fields(FleetStatusSnapshot& s, V& v) {
  obs::json::schema_tag(v, "fleet_status", "roboads-fleet-status", 1);
  v("unix_time", s.unix_time);
  v("seq", s.seq);
  v("robots", s.robots);
  v("steps", s.steps);
  v("sensor_alarms", s.sensor_alarms);
  v("actuator_alarms", s.actuator_alarms);
  v("quarantine_iterations", s.quarantine_iterations);
  v("dropped_packets", s.dropped_packets);
  v("forwarded_packets", s.forwarded_packets);
  v("unknown_robot_packets", s.unknown_robot_packets);
  v("trace_sample", s.trace_sample);
  v("spans", s.spans);
  v("ingest_to_step_ns", s.ingest_to_step_ns);
  v("ingest_to_alarm_ns", s.ingest_to_alarm_ns);
  v("shards", s.shards);
  v("hot_robots", s.hot_robots);
  v("alarms", s.alarms);
  v("hints", s.hints);
}

// The pure hint policy, unit-testable without a live service: a shard is
// hot when its EWMA step rate exceeds hot_ratio × the mean over all shards
// and it holds >= 2 sessions (a single-robot shard has nothing to shed).
// Each hot shard contributes one hint naming its highest-rate robot and
// the lowest-rate shard as the target. `robots` may be all robots or any
// superset of the hot shards' robots.
std::vector<RebalanceHint> rebalance_hints(const std::vector<ShardStat>& shards,
                                           const std::vector<RobotStat>& robots,
                                           double hot_ratio);

// Single-line JSON round-trip (byte-stable through write→parse→write).
std::string serialize_fleet_status(const FleetStatusSnapshot& status);
FleetStatusSnapshot parse_fleet_status(const std::string& line);

// Atomic publish: write <path>.tmp, rename over <path>.
void write_fleet_status_file(const std::string& path,
                             const FleetStatusSnapshot& status);
// Throws CheckError when missing/unreadable/not a v1 snapshot.
FleetStatusSnapshot read_fleet_status_file(const std::string& path);

// The `roboads_fleet top` terminal frame: fleet totals, shard table,
// hot-robot ranking, rebalance hints, rolling alarm feed.
std::string render_fleet_status(const FleetStatusSnapshot& status);

}  // namespace roboads::fleet
