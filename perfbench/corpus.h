// The benchmark's seeded inputs: which missions run, and their serial
// recordings.
//
// From the generator seed the benchmark derives a mission list — Khepera
// Table II scenarios 1–11 and the Tamiya scenario battery, each with its own
// mission seed, a few of them under transport-layer frame drops so that
// some detector steps take the masked path. The library only ever sees the
// generated scenarios and configs. Recording runs each mission once through
// the serial eval::run_mission; the recordings are both the replay input
// (detector-replay, fleet-stream) and the oracle every other path is
// checked against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/tamiya.h"

namespace perfbench {

using namespace roboads;

struct Platforms {
  eval::KheperaPlatform khepera;
  eval::TamiyaPlatform tamiya;
};

struct MissionSpec {
  const eval::Platform* platform = nullptr;
  std::size_t scenario = 0;  // Table II number, or Tamiya battery index
  eval::MissionConfig config;
  std::string name;          // "<platform>/<scenario>/s<seed>"

  std::function<attacks::Scenario()> scenario_factory() const;
};

struct CorpusSize {
  std::size_t khepera_scenarios = 11;  // Table II 1..n
  std::size_t tamiya_scenarios = 7;    // battery 0..n-1
  std::size_t faulted_missions = 3;    // recorded under frame drops
  double drop_rate = 0.35;             // per-iteration drop on one sensor
  std::size_t iterations = 250;        // mission cap (MissionConfig default)
};

std::vector<MissionSpec> mission_specs(const Platforms& platforms,
                                       std::uint64_t seed,
                                       const CorpusSize& size);

struct Recording {
  MissionSpec spec;
  eval::MissionResult result;
  bool faulted() const { return spec.config.transport_faults.active(); }
};

struct Corpus {
  std::vector<Recording> missions;
  std::size_t steps = 0;
  std::size_t masked_steps = 0;  // steps with a sensor unavailable
  std::uint64_t digest = 0;      // over every recorded record
};

// Runs every spec serially through eval::run_mission.
Corpus record(const std::vector<MissionSpec>& specs);

// FNV-1a over every field fleet::compare_reports compares (the empty and
// the all-true availability mask hash alike, as compare_reports treats them
// alike). Allocation- and lock-free, so a report tap can afford it.
std::uint64_t report_digest(const core::DetectionReport& report);

// FNV-1a over a mission's records (inputs, ground truth and report digests):
// equal digests for equal recordings.
std::uint64_t digest(const eval::MissionResult& result);

// Empty when the two records agree exactly (report fields via
// fleet::compare_reports); otherwise the first difference.
std::string compare_records(const eval::IterationRecord& a,
                            const eval::IterationRecord& b);

// Empty when two missions' records agree exactly.
std::string compare_missions(const eval::MissionResult& a,
                             const eval::MissionResult& b);

// Deterministic 64-bit mixing (SplitMix64) for deriving seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
