#include "shard/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>

#include "obs/jsonl.h"

namespace roboads::shard {
namespace {

namespace json = obs::json;
namespace fs = std::filesystem;

constexpr char kCheckpointName[] = "roboads-shard-checkpoint";

// The checkpoint file's first line.
template <class V>
void visit_header(V& v) {
  json::schema_tag(v, "checkpoint", kCheckpointName, 1);
}

// The outcome line. Every field maps one-to-one onto JobOutcome except the
// confusion counts, which travel packed as [tp, fp, tn, fn] arrays.
template <class Outcome, class Counts, class V>
void visit_outcome(Outcome& o, Counts& sensor, Counts& actuator, V& v) {
  v.expect("event", "outcome");
  v("id", o.id);
  v("group", o.group);
  v("job", o.name);
  v("status", o.status);
  v("sensor", sensor);
  v("actuator", actuator);
  v("delays", o.delays);
  v("sensor_sequence", o.sensor_sequence);
  v("actuator_sequence", o.actuator_sequence);
  v("bundles", o.bundle_files);
  v("failure", o.failure);
  v("failure_step", o.failure_step);
  v("findings", o.findings);
}

}  // namespace

std::string serialize_outcome(const JobOutcome& outcome) {
  const std::vector<std::int64_t> sensor = {
      outcome.sensor_tp, outcome.sensor_fp, outcome.sensor_tn,
      outcome.sensor_fn};
  const std::vector<std::int64_t> actuator = {
      outcome.actuator_tp, outcome.actuator_fp, outcome.actuator_tn,
      outcome.actuator_fn};
  std::ostringstream os;
  json::write_object(os, [&](json::FieldWriter& v) {
    visit_outcome(outcome, sensor, actuator, v);
  });
  return os.str();
}

JobOutcome parse_outcome(const std::string& line, std::size_t line_no) {
  const std::string context = "checkpoint line " + std::to_string(line_no);
  JobOutcome out;
  std::vector<std::int64_t> sensor;
  std::vector<std::int64_t> actuator;
  json::read_object(
      json::Fields(json::parse_object_line(line, context), context),
      [&](json::FieldReader& v) { visit_outcome(out, sensor, actuator, v); });
  if (sensor.size() != 4 || actuator.size() != 4) {
    throw ManifestError(context + ": confusion counts need 4 entries");
  }
  out.sensor_tp = sensor[0];
  out.sensor_fp = sensor[1];
  out.sensor_tn = sensor[2];
  out.sensor_fn = sensor[3];
  out.actuator_tp = actuator[0];
  out.actuator_fp = actuator[1];
  out.actuator_tn = actuator[2];
  out.actuator_fn = actuator[3];
  return out;
}

void write_checkpoint_header(std::ostream& os) {
  json::write_object(os, [](json::FieldWriter& v) { visit_header(v); });
  os << '\n';
  os.flush();
}

void append_outcome(std::ostream& os, const JobOutcome& outcome) {
  os << serialize_outcome(outcome) << '\n';
  os.flush();
}

std::vector<JobOutcome> read_checkpoint_file(const std::string& path,
                                             bool repair) {
  std::vector<JobOutcome> outcomes;
  bool saw_header = false;
  json::read_jsonl_tail_tolerant(
      path,
      [&](const std::string& line, std::size_t line_no) {
        if (!saw_header) {
          const std::string context =
              "checkpoint line " + std::to_string(line_no);
          json::read_object(
              json::Fields(json::parse_object_line(line, context), context),
              [](json::FieldReader& v) { visit_header(v); });
          saw_header = true;
        } else {
          outcomes.push_back(parse_outcome(line, line_no));
        }
      },
      repair,
      [&](const std::exception& e) {
        // Corruption anywhere but the final line is not a torn tail — the
        // file was damaged after the fact, and silently dropping completed
        // work would undercount the campaign.
        throw ManifestError(path + ": corrupt checkpoint (" + e.what() + ")");
      });
  return outcomes;
}

std::vector<JobOutcome> load_run_outcomes(const std::string& dir) {
  std::vector<std::string> paths;
  if (fs::exists(dir)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("checkpoint-", 0) == 0 &&
          name.size() > 6 && name.substr(name.size() - 6) == ".jsonl") {
        paths.push_back(entry.path().string());
      }
    }
  }
  // Directory iteration order is filesystem-dependent; sort so dedup (and
  // with it the merged report) is deterministic.
  std::sort(paths.begin(), paths.end());
  std::vector<JobOutcome> outcomes;
  std::set<std::string> seen;
  for (const std::string& path : paths) {
    for (JobOutcome& outcome : read_checkpoint_file(path, /*repair=*/false)) {
      if (seen.insert(outcome.id).second) {
        outcomes.push_back(std::move(outcome));
      }
    }
  }
  return outcomes;
}

std::string checkpoint_path(const std::string& dir, const std::string& label) {
  return dir + "/checkpoint-" + label + ".jsonl";
}

std::string heartbeat_path(const std::string& dir, const std::string& label) {
  return dir + "/heartbeat-" + label;
}

}  // namespace roboads::shard
