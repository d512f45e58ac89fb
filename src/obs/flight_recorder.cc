#include "obs/flight_recorder.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"
#include "obs/jsonl.h"

namespace roboads::obs {
namespace {

constexpr char kBundleName[] = "roboads-postmortem";

// Bundle lines are parsed by the shared JSONL layer (obs/jsonl.h); this
// wrapper skips blank lines, threads the line counter, and tags every
// diagnostic with "bundle line N".
json::Fields parse_line(std::istream& is, std::size_t& line_no,
                        const char* what) {
  std::string line;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty()) {
      const std::string context = "bundle line " + std::to_string(line_no);
      return json::Fields(json::parse_object_line(line, context), context);
    }
  }
  throw CheckError(std::string("bundle truncated: missing ") + what +
                   " line");
}

// The header line: the trigger and how many record lines follow.
template <class Bundle, class Count, class V>
void visit_header(Bundle& b, Count& records, V& v) {
  json::schema_tag(v, "bundle", kBundleName, PostmortemBundle::kSchemaVersion);
  v("trigger", b.trigger);
  v("trigger_k", b.trigger_k);
  v("detail", b.detail);
  v("records", records);
}

// The warm-start line: the first record's k and pre-step state.
template <class K, class V>
void visit_snapshot(K& k, DetectorStateSnapshot& snap, V& v) {
  v.expect("event", "snapshot");
  v("k", k);
  visit_fields(snap, v);
}

}  // namespace

const char* to_string(BundleTrigger trigger) {
  switch (trigger) {
    case BundleTrigger::kSensorAlarm: return "sensor_alarm";
    case BundleTrigger::kActuatorAlarm: return "actuator_alarm";
    case BundleTrigger::kQuarantine: return "quarantine";
    case BundleTrigger::kMissionFailure: return "mission_failure";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {
  ROBOADS_CHECK(config_.window >= 1, "flight recorder window must be >= 1");
  ring_.resize(config_.window);
}

void FlightRecorder::begin_mission(BundleProvenance provenance) {
  provenance_ = std::move(provenance);
  next_ = 0;
  count_ = 0;
}

FlightRecord& FlightRecorder::begin_record() {
  FlightRecord& slot = ring_[next_];
  next_ = (next_ + 1) % ring_.size();
  if (count_ < ring_.size()) ++count_;
  return slot;
}

void FlightRecorder::annotate_truth(std::int64_t k,
                                    const std::string& truth_sensors,
                                    bool truth_actuator) {
  if (count_ == 0) return;
  FlightRecord& newest = ring_[(next_ + ring_.size() - 1) % ring_.size()];
  if (newest.k != k) return;
  newest.truth_valid = true;
  newest.truth_sensors = truth_sensors;
  newest.truth_actuator = truth_actuator;
  // Bundles triggered by iteration k were frozen inside the detector step,
  // before the mission runner could stamp this truth — patch their copy of
  // the trigger record so frozen incidents carry complete ground truth.
  for (PostmortemBundle& b : bundles_) {
    if (b.records.empty()) continue;
    FlightRecord& last = b.records.back();
    if (last.k != k || last.truth_valid) continue;
    last.truth_valid = true;
    last.truth_sensors = truth_sensors;
    last.truth_actuator = truth_actuator;
  }
}

std::size_t FlightRecorder::size() const { return count_; }

std::vector<const FlightRecord*> FlightRecorder::window() const {
  std::vector<const FlightRecord*> out;
  out.reserve(count_);
  const std::size_t oldest =
      count_ < ring_.size() ? 0 : next_;  // ring fills from slot 0
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(&ring_[(oldest + i) % ring_.size()]);
  }
  return out;
}

PostmortemBundle FlightRecorder::snapshot(BundleTrigger trigger,
                                          std::int64_t k,
                                          const std::string& detail) const {
  PostmortemBundle bundle;
  bundle.trigger = to_string(trigger);
  bundle.trigger_k = k;
  bundle.detail = detail;
  bundle.provenance = provenance_;
  bundle.records.reserve(count_);
  for (const FlightRecord* rec : window()) bundle.records.push_back(*rec);
  return bundle;
}

void FlightRecorder::trigger(BundleTrigger trigger, std::int64_t k,
                             const std::string& detail) {
  if (bundles_.size() >= config_.max_bundles) {
    ++bundles_dropped_;
    return;
  }
  bundles_.push_back(snapshot(trigger, k, detail));
}

std::vector<PostmortemBundle> FlightRecorder::take_bundles() {
  std::vector<PostmortemBundle> out = std::move(bundles_);
  bundles_.clear();
  return out;
}

void write_bundle(std::ostream& os, const PostmortemBundle& bundle) {
  const std::uint64_t records = bundle.records.size();
  json::write_object(os, [&](json::FieldWriter& v) {
    visit_header(bundle, records, v);
  });
  os << '\n';
  json::write_record(os, bundle.provenance);
  os << '\n';

  // Warm-start snapshot: the first record's pre-step state. Per-record
  // snapshots would multiply the file size for no replay benefit — stepping
  // forward from the window start reproduces every later state exactly.
  // (The writer only reads the snapshot it is handed.)
  static const DetectorStateSnapshot kEmptySnapshot;
  const std::int64_t k = bundle.records.empty() ? 0 : bundle.records.front().k;
  const DetectorStateSnapshot& snap =
      bundle.records.empty() ? kEmptySnapshot : bundle.records.front().pre_step;
  json::write_object(os, [&](json::FieldWriter& v) {
    visit_snapshot(k, const_cast<DetectorStateSnapshot&>(snap), v);
  });
  os << '\n';

  for (const FlightRecord& r : bundle.records) {
    json::write_record(os, r);
    os << '\n';
  }
}

PostmortemBundle read_bundle(std::istream& is) {
  std::size_t line_no = 0;
  PostmortemBundle bundle;
  std::uint64_t records = 0;
  json::read_object(parse_line(is, line_no, "header"),
                    [&](json::FieldReader& v) {
                      visit_header(bundle, records, v);
                    });
  json::read_record(parse_line(is, line_no, "provenance"), bundle.provenance);
  std::int64_t k = 0;
  DetectorStateSnapshot warm;
  json::read_object(parse_line(is, line_no, "snapshot"),
                    [&](json::FieldReader& v) { visit_snapshot(k, warm, v); });

  for (std::uint64_t i = 0; i < records; ++i) {
    json::read_record(parse_line(is, line_no, "record"),
                      bundle.records.emplace_back());
  }
  if (!bundle.records.empty()) bundle.records.front().pre_step = warm;
  return bundle;
}

void write_bundle_file(const std::string& path, const PostmortemBundle& b) {
  std::ofstream file(path);
  ROBOADS_CHECK(file.good(), "cannot open bundle file '" + path + "'");
  write_bundle(file, b);
  file.flush();
  ROBOADS_CHECK(!file.fail(), "error writing bundle file '" + path + "'");
}

PostmortemBundle read_bundle_file(const std::string& path) {
  std::ifstream file(path);
  ROBOADS_CHECK(file.good(), "cannot open bundle file '" + path + "'");
  return read_bundle(file);
}

std::string bundle_filename(const PostmortemBundle& bundle,
                            std::size_t ordinal) {
  std::string label =
      bundle.provenance.label.empty() ? "run" : bundle.provenance.label;
  for (char& c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  std::ostringstream os;
  os << label << "-b" << ordinal << "-" << bundle.trigger << "-k"
     << bundle.trigger_k << ".jsonl";
  return os.str();
}

}  // namespace roboads::obs
