// Byte pins for the single-line status/telemetry schemas: the shard
// status.json snapshot, worker heartbeats, the telemetry stream's header
// and record lines, checkpoint outcome lines, fleet_status.json, and the
// metrics snapshot dump. Each test serializes one fully
// populated record (non-default values everywhere, NaN/Inf → null, string
// escapes, empty and non-empty arrays and histograms) and compares the
// exact bytes with a literal. A write→parse→write round-trip cannot catch
// format drift; these can. (Postmortem bundles are pinned the same way by
// tests/data/golden_bundle.jsonl.)
//
// A deliberate schema change updates the literal here together with the
// schema's version number.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "fleet/introspect.h"
#include "obs/metrics.h"
#include "shard/checkpoint.h"
#include "shard/heartbeat.h"
#include "shard/status.h"
#include "shard/telemetry.h"

namespace roboads {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Every escape the writer knows: quote, backslash, newline, tab, carriage
// return, a control byte (\u0001), plus a slash and UTF-8 passed through.
const std::string kTricky = "w\"0\\\n\t\r\x01/\xc3\xa9";

obs::HistogramSnapshot small_hist(double scale) {
  obs::HistogramSnapshot h =
      obs::HistogramSnapshot::with_bounds({1.0, 10.0, 100.0});
  for (double v : {0.5, 5.0, 50.0, 500.0, 7.25}) h.record(scale * v);
  return h;
}

std::string first_line(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::string line;
  std::getline(is, line);
  return line;
}

class GoldenLines : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "golden_lines_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(GoldenLines, ShardStatus) {
  shard::RunStatus s;
  s.unix_time = 1754500000.125;
  s.total_jobs = 12;
  s.completed = 9;
  s.ok = 6;
  s.failed = 2;
  s.violations = 1;
  s.complete = true;
  s.progress = 0.75;
  s.elapsed_seconds = 33.5;
  s.rate_jobs_per_second = kNaN;
  s.eta_seconds = kInf;
  s.counters.launches = 5;
  s.counters.crashes = 4;
  s.counters.hangs = 3;
  s.counters.lost_shards = 2;
  s.counters.salvage_workers = 1;
  s.counters.slow_job_grants = 7;
  s.step_latency = small_hist(1000.0);
  shard::WorkerStatus w;
  w.label = kTricky;
  w.heartbeat_age_seconds = 1.25;
  w.jobs_done = 4;
  w.instance_jobs_done = 2;
  w.last_job = "j00003";
  w.last_job_unix_time = 1754499990.5;
  w.current_job = "j00004";
  w.rate_jobs_per_second = 0.1;
  w.max_rss_kb = 20480.0;
  s.workers.push_back(w);
  shard::WorkerStatus idle;
  idle.label = "s1";
  idle.max_rss_kb = kNaN;
  s.workers.push_back(idle);

  EXPECT_EQ(
      shard::serialize_status(s),
      R"({"event":"status","name":"roboads-shard-status","version":1,)"
      R"("unix_time":1754500000.125,"jobs":12,"completed":9,"ok":6,)"
      R"("failed":2,"violations":1,"complete":true,"progress":0.75,)"
      R"("elapsed_s":33.5,"rate_jobs_per_s":null,"eta_s":null,)"
      R"("launches":5,"crashes":4,"hangs":3,"lost_shards":2,)"
      R"("salvage_workers":1,"slow_job_grants":7,"step_latency":)"
      R"({"bounds":[1,10,100],"buckets":[0,0,0,5],"count":5,)"
      R"("sum":562750,"sumsq":252577812500,"max":500000},"workers":[)"
      R"({"label":"w\"0\\\n\t\r\u0001/)"
      "\xc3\xa9"
      R"(","heartbeat_age_s":1.25,"jobs_done":4,"instance_jobs_done":2,)"
      R"("last_job":"j00003","last_job_unix_time":1754499990.5,)"
      R"("current_job":"j00004","rate_jobs_per_s":0.10000000000000001,)"
      R"("max_rss_kb":20480},{"label":"s1","heartbeat_age_s":-1,)"
      R"("jobs_done":0,"instance_jobs_done":0,"last_job":"",)"
      R"("last_job_unix_time":0,"current_job":"","rate_jobs_per_s":0,)"
      R"("max_rss_kb":null}]})");
}

TEST_F(GoldenLines, Heartbeat) {
  shard::Heartbeat beat;
  beat.label = kTricky;
  beat.jobs_done = 17;
  beat.last_job = "j00016";
  beat.last_job_unix_time = 1754499990.0625;
  beat.current_job = "j00017";
  const std::string path = dir_ + "/heartbeat-w0";
  shard::write_heartbeat(path, beat);
  EXPECT_EQ(first_line(path),
            R"({"label":"w\"0\\\n\t\r\u0001/)"
            "\xc3\xa9"
            R"(","jobs_done":17,"last_job":"j00016",)"
            R"("last_job_unix_time":1754499990.0625,"current_job":"j00017"})");

  shard::Heartbeat idle;
  idle.last_job_unix_time = kNaN;
  shard::write_heartbeat(path, idle);
  EXPECT_EQ(first_line(path),
            R"({"label":"","jobs_done":0,"last_job":"",)"
            R"("last_job_unix_time":null,"current_job":""})");
}

TEST_F(GoldenLines, TelemetryHeader) {
  shard::TelemetryStream stream(dir_, "s0", /*interval_seconds=*/60.0,
                                /*metrics=*/nullptr);
  ASSERT_TRUE(stream.enabled());
  EXPECT_EQ(first_line(shard::telemetry_path(dir_, "s0")),
            R"({"event":"telemetry-header","name":"roboads-shard-telemetry",)"
            R"("version":1})");
}

TEST_F(GoldenLines, TelemetryRecord) {
  shard::TelemetryRecord r;
  r.label = kTricky;
  r.instance = 4242;
  r.seq = 3;
  r.unix_time = 1754500001.75;
  r.elapsed_seconds = 12.5;
  r.jobs_assigned = 8;
  r.jobs_done = 5;
  r.groups["seed-11"] = {3, 2, 1, 0, 2};
  r.groups["fuzz\t\"x\""] = {2, 1, 0, 1, 1};
  r.step_latency = small_hist(2.0);
  r.max_rss_kb = 10240.5;
  r.user_seconds = kNaN;
  r.system_seconds = 0.03125;
  EXPECT_EQ(
      shard::serialize_telemetry(r),
      R"({"event":"telemetry","label":"w\"0\\\n\t\r\u0001/)"
      "\xc3\xa9"
      R"(","instance":4242,"seq":3,"unix_time":1754500001.75,)"
      R"("elapsed_s":12.5,"jobs_assigned":8,"jobs_done":5,"groups":[)"
      R"({"group":"fuzz\t\"x\"","done":2,"ok":1,"failed":0,)"
      R"("violations":1,"alarms":1},{"group":"seed-11","done":3,"ok":2,)"
      R"("failed":1,"violations":0,"alarms":2}],"step_latency":)"
      R"({"bounds":[1,10,100],"buckets":[1,1,2,1],"count":5,"sum":1125.5,)"
      R"("sumsq":1010311.25,"max":1000},"max_rss_kb":10240.5,)"
      R"("user_s":null,"system_s":0.03125})");

  shard::TelemetryRecord empty;
  empty.instance = -7;
  EXPECT_EQ(
      shard::serialize_telemetry(empty),
      R"({"event":"telemetry","label":"","instance":-7,"seq":0,)"
      R"("unix_time":0,"elapsed_s":0,"jobs_assigned":0,"jobs_done":0,)"
      R"("groups":[],"step_latency":{"bounds":[],"buckets":[],"count":0,)"
      R"("sum":0,"sumsq":0,"max":0},"max_rss_kb":0,"user_s":0,)"
      R"("system_s":0})");
}

TEST_F(GoldenLines, FleetStatus) {
  fleet::FleetStatusSnapshot s;
  s.unix_time = 1754500000.25;
  s.seq = 7;
  s.robots = 3;
  s.steps = 360;
  s.sensor_alarms = 11;
  s.actuator_alarms = 4;
  s.quarantine_iterations = 2;
  s.dropped_packets = 5;
  s.forwarded_packets = 1;
  s.unknown_robot_packets = 9;
  s.trace_sample = 2;
  s.spans = 120;
  s.ingest_to_step_ns = small_hist(1e3);
  // ingest_to_alarm_ns stays empty: the bound-less snapshot's bytes.
  fleet::ShardStat sh;
  sh.shard = 1;
  sh.sessions = 2;
  sh.steps = 100;
  sh.sensor_alarms = 6;
  sh.actuator_alarms = 3;
  sh.quarantine_iterations = 1;
  sh.dropped_packets = 4;
  sh.forwarded_packets = 8;
  sh.queue_depth = 5;
  sh.queue_high_water = 40;
  sh.reorder_pending = 2;
  sh.ewma_queue_depth = 1.5;
  sh.ewma_steps_per_s = kNaN;
  sh.ingest_to_step_ns = small_hist(3.0);
  s.shards.push_back(sh);
  fleet::RobotStat r;
  r.robot = 42;
  r.shard = 1;
  r.steps = 60;
  r.sensor_alarms = 3;
  r.actuator_alarms = 1;
  r.late_packets = 2;
  r.duplicate_packets = 1;
  r.forced_evictions = 6;
  r.masked_steps = 4;
  r.command_substituted = 5;
  r.reorder_pending = 7;
  r.ewma_steps_per_s = 9.875;
  r.ewma_step_latency_ns = -kInf;
  r.traced = true;
  s.hot_robots.push_back(r);
  fleet::FleetAlarm a;
  a.unix_time = 1754499999.5;
  a.robot = 42;
  a.k = 77;
  a.sensor = true;
  a.actuator = true;
  a.latency_ns = 250000.0;
  s.alarms.push_back(a);
  // hints stays empty: the empty-array bytes.
  EXPECT_EQ(
      fleet::serialize_fleet_status(s),
      R"({"event":"fleet_status","name":"roboads-fleet-status","version":1,)"
      R"("unix_time":1754500000.25,"seq":7,"robots":3,"steps":360,)"
      R"("sensor_alarms":11,"actuator_alarms":4,"quarantine_iterations":2,)"
      R"("dropped_packets":5,"forwarded_packets":1,)"
      R"("unknown_robot_packets":9,"trace_sample":2,"spans":120,)"
      R"("ingest_to_step_ns":{"bounds":[1,10,100],"buckets":[0,0,0,5],)"
      R"("count":5,"sum":562750,"sumsq":252577812500,"max":500000},)"
      R"("ingest_to_alarm_ns":{"bounds":[],"buckets":[],"count":0,"sum":0,)"
      R"("sumsq":0,"max":0},"shards":[{"shard":1,"sessions":2,"steps":100,)"
      R"("sensor_alarms":6,"actuator_alarms":3,"quarantine_iterations":1,)"
      R"("dropped_packets":4,"forwarded_packets":8,"queue_depth":5,)"
      R"("queue_high_water":40,"reorder_pending":2,"ewma_queue_depth":1.5,)"
      R"("ewma_steps_per_s":null,"ingest_to_step_ns":{"bounds":[1,10,100],)"
      R"("buckets":[0,1,2,2],"count":5,"sum":1688.25,)"
      R"("sumsq":2273200.3125,"max":1500},"ingest_to_alarm_ns":)"
      R"({"bounds":[],"buckets":[],"count":0,"sum":0,"sumsq":0,"max":0}}],)"
      R"("hot_robots":[{"robot":42,"shard":1,"steps":60,"sensor_alarms":3,)"
      R"("actuator_alarms":1,"late_packets":2,"duplicate_packets":1,)"
      R"("forced_evictions":6,"masked_steps":4,"command_substituted":5,)"
      R"("reorder_pending":7,"ewma_steps_per_s":9.875,)"
      R"("ewma_step_latency_ns":null,"traced":true}],"alarms":[)"
      R"({"unix_time":1754499999.5,"robot":42,"k":77,"sensor":true,)"
      R"("actuator":true,"latency_ns":250000}],"hints":[]})");
}

TEST_F(GoldenLines, CheckpointOutcome) {
  shard::JobOutcome o;
  o.id = "j00007";
  o.group = "seed-11";
  o.name = kTricky;
  o.status = "violation";
  o.sensor_tp = 1;
  o.sensor_fp = 2;
  o.sensor_tn = 3;
  o.sensor_fn = 4;
  o.actuator_tp = 5;
  o.actuator_fp = 6;
  o.actuator_tn = 7;
  o.actuator_fn = 8;
  o.delays.push_back({"ips", 12, 0.25});
  o.delays.push_back({"lidar\"x\"", 30, std::nullopt});
  o.sensor_sequence = "0110";
  o.actuator_sequence = "1001";
  o.bundle_files = {"bundles/a.jsonl", "b\\c.jsonl"};
  o.failure = "collision at step 9";
  o.failure_step = 9;
  o.findings.push_back({"no_false_alarm", "detail\n2", "spec", "shrunk"});
  EXPECT_EQ(
      shard::serialize_outcome(o),
      R"({"event":"outcome","id":"j00007","group":"seed-11","job":)"
      R"("w\"0\\\n\t\r\u0001/)"
      "\xc3\xa9"
      R"(","status":"violation","sensor":[1,2,3,4],"actuator":[5,6,7,8],)"
      R"("delays":[{"label":"ips","triggered_at":12,"seconds":0.25},)"
      R"({"label":"lidar\"x\"","triggered_at":30,"seconds":null}],)"
      R"("sensor_sequence":"0110","actuator_sequence":"1001",)"
      R"("bundles":["bundles/a.jsonl","b\\c.jsonl"],)"
      R"("failure":"collision at step 9","failure_step":9,"findings":[)"
      R"({"invariant":"no_false_alarm","detail":"detail\n2","spec":"spec",)"
      R"("shrunk":"shrunk"}]})");

  const shard::JobOutcome empty;
  EXPECT_EQ(shard::serialize_outcome(empty),
            R"({"event":"outcome","id":"","group":"","job":"","status":"",)"
            R"("sensor":[0,0,0,0],"actuator":[0,0,0,0],"delays":[],)"
            R"("sensor_sequence":"","actuator_sequence":"","bundles":[],)"
            R"("failure":"","failure_step":0,"findings":[]})");
}

TEST_F(GoldenLines, MetricsSnapshot) {
  obs::MetricsRegistry metrics;
  metrics.counter("engine.steps").increment(12);
  metrics.gauge("fleet.rate \"hz\"").set(-2.5);
  obs::Histogram& h = metrics.histogram("engine.step_ns", {1.0, 10.0, 100.0});
  for (double v : {0.5, 5.0, 50.0, 500.0, 7.25}) h.record(v);
  metrics.histogram("empty_ns", {1.0});
  metrics.gauge("nan_gauge").set(kNaN);
  std::ostringstream os;
  metrics.write_jsonl(os);
  EXPECT_EQ(
      os.str(),
      R"({"metric":"empty_ns","kind":"histogram","value":0,"sum":0,)"
      R"("mean":0,"p50":0,"p90":0,"p95":0,"p99":0,"max":0,)"
      R"("buckets":[0,0]})"
      "\n"
      R"({"metric":"engine.step_ns","kind":"histogram","value":5,)"
      R"("sum":562.75,"mean":112.55,"p50":10,"p90":100,"p95":100,)"
      R"("p99":100,"max":500,"buckets":[1,2,1,1]})"
      "\n"
      R"({"metric":"engine.steps","kind":"counter","value":12})"
      "\n"
      R"({"metric":"fleet.rate \"hz\"","kind":"gauge","value":-2.5})"
      "\n"
      R"({"metric":"nan_gauge","kind":"gauge","value":null})"
      "\n");
}

}  // namespace
}  // namespace roboads
