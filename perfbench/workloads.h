// The three workloads, each with an untraced run (end-to-end metrics) and a
// traced run (per-layer metrics).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus.h"
#include "host.h"
#include "stats.h"

namespace perfbench {

struct RunContext {
  const Corpus* corpus = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;       // measuring time for this run or slice
  std::size_t threads = 1;     // thread budget (at most cpu_count())
  std::string trace_path;      // traced runs write spans JSONL here
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  std::size_t threads = 1;     // threads the measured phase ran on
  double throughput_per_s = 0.0;
  Summary latency_ms;
  std::vector<Metric> layers;  // traced runs only
  std::string notes;           // human-readable lines for the log

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
  void layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
};

// detector-replay: recorded (u, z, mask) frames into a fresh core::RoboAds
// per mission, closed loop on one thread; every report is checked against
// the recording.
Outcome run_detector_replay(const RunContext& ctx);
Outcome trace_detector_replay(const RunContext& ctx);

// mission-campaign: the corpus missions through eval::run_mission_batch on
// ctx.threads threads; every record is checked against the serial recording.
Outcome run_mission_campaign(const RunContext& ctx);
Outcome trace_mission_campaign(const RunContext& ctx);

struct FleetShape {
  std::size_t robots = 1500;
  double hz = 10.0;                 // per-robot frame rate, open phase
  std::size_t warmup_frames = 15;   // open-phase frames per robot left out
                                    // of the stats (caches and rings warm)
  double open_share = 0.35;         // of the run measured in the open phase
  std::size_t closed_window = 2;    // frames in flight per robot, closed
  // Path-coverage choices, not a measured traffic mix: enough that every
  // robot runs the session's out-of-order, duplicate and late-packet paths.
  // Capacity barely moves between these and 0 (perfbench/README.md).
  double duplicate_share = 0.05;    // packets re-sent
  double reorder_share = 0.25;      // frames whose packets are shuffled
  double latency_limit_ms = 100.0;  // one control period
};

// fleet-stream: a mixed fleet through fleet::FleetService — an open phase at
// a fixed robots × Hz rate (decision latency from each frame's due time) and
// a closed phase with per-robot credit windows (full-step capacity). The rig
// (packet streams, service, robots) is built during set-up.
class FleetRig;
std::shared_ptr<FleetRig> make_fleet_rig(const RunContext& ctx,
                                         const FleetShape& shape);
Outcome run_fleet_stream(FleetRig& rig, const RunContext& ctx);
Outcome trace_fleet_stream(FleetRig& rig, const RunContext& ctx);

}  // namespace perfbench
