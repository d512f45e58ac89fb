// The shared JSONL codec (obs/jsonl.h) under hostile input, and the
// one-field-list contract of every visited schema:
//   - integer fields are strict: null, non-finite, fractional, negative
//     (for unsigned members) and out-of-range values are refused with a
//     diagnostic naming the field, never cast;
//   - the line parser accepts JSON grammar only (four-hex-digit \u
//     escapes, JSON number syntax, bounded nesting);
//   - every key a writer emits is required by its reader, checked for
//     every object of every schema — top-level, nested and in arrays — by
//     dropping each key in turn, with the visitor itself listing the keys.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "fleet/introspect.h"
#include "obs/flight_recorder.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "shard/checkpoint.h"
#include "shard/heartbeat.h"
#include "shard/manifest.h"
#include "shard/status.h"
#include "shard/telemetry.h"

namespace roboads {
namespace {

namespace json = obs::json;
using json::Value;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

json::Fields fields_of(const std::string& line) {
  return json::Fields(json::parse_object_line(line, "test"), "test");
}

// Runs `fn`, which must throw; returns the diagnostic.
std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

bool mentions(const std::string& message, const std::string& key) {
  return message.find("'" + key + "'") != std::string::npos;
}

// --- Strict integers -------------------------------------------------------

TEST(JsonlIntegers, RejectsNullNonFiniteFractionalAndOutOfRange) {
  for (const char* bad : {"null", "1e300", "-1e300", "2.7", "-0.5",
                          "9223372036854775808", "\"7\"", "true", "[1]"}) {
    const json::Fields f = fields_of(std::string("{\"n\":") + bad + "}");
    const std::string message = error_of([&] { f.integer("n"); });
    EXPECT_TRUE(mentions(message, "n")) << bad << ": " << message;
  }
  // 1e400 overflows strtod to inf: still a number, still not an integer.
  EXPECT_THROW(fields_of("{\"n\":1e400}").integer("n"), CheckError);
}

TEST(JsonlIntegers, AcceptsExactIntegersAtTheirLimits) {
  EXPECT_EQ(fields_of("{\"n\":-7}").integer("n"), -7);
  EXPECT_EQ(fields_of("{\"n\":0}").integer("n"), 0);
  EXPECT_EQ(fields_of("{\"n\":1e3}").integer("n"), 1000);
  EXPECT_EQ(fields_of("{\"n\":-9223372036854775808}").integer("n"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(fields_of("{\"n\":9223372036854775807}").integer("n"),
            std::numeric_limits<std::int64_t>::max());
  // Past 2^53 a double would round: integer literals convert exactly.
  EXPECT_EQ(fields_of("{\"n\":9007199254740993}").unsigned_integer("n"),
            9007199254740993u);
  EXPECT_EQ(fields_of("{\"n\":18446744073709551615}").unsigned_integer("n"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(fields_of("{\"n\":-0}").unsigned_integer("n"), 0u);
  EXPECT_EQ(fields_of("{\"n\":[0,5,7]}").unsigned_integers("n"),
            (std::vector<std::uint64_t>{0, 5, 7}));
}

TEST(JsonlIntegers, LargeSeedsRoundTripExactly) {
  shard::Heartbeat beat;
  beat.jobs_done = 9007199254740993u;  // 2^53 + 1
  EXPECT_EQ(json::parse_record<shard::Heartbeat>(json::record_line(beat), "t")
                .jobs_done,
            beat.jobs_done);
}

TEST(JsonlIntegers, UnsignedRejectsNegativesAndTwoToThe64) {
  for (const char* bad : {"-1", "18446744073709551616", "null", "1.5"}) {
    const json::Fields f = fields_of(std::string("{\"n\":") + bad + "}");
    EXPECT_TRUE(mentions(error_of([&] { f.unsigned_integer("n"); }), "n"))
        << bad;
  }
  EXPECT_THROW(fields_of("{\"n\":[1,-1]}").unsigned_integers("n"),
               CheckError);
  EXPECT_THROW(fields_of("{\"n\":[1,null]}").integers("n"), CheckError);
}

// Only parsed: a manifest like this must never reach the supervisor,
// which sizes its slot table by `shards`.
TEST(JsonlIntegers, ManifestWithNegativeShardsIsRejected) {
  const std::string text =
      "{\"event\":\"manifest\",\"name\":\"roboads-shard-manifest\","
      "\"version\":1,\"shards\":-1,\"jobs\":0}\n";
  try {
    shard::parse_manifest(text);
    FAIL() << "accepted shards = -1";
  } catch (const shard::ManifestError& e) {
    EXPECT_TRUE(mentions(e.what(), "shards")) << e.what();
  }
}

TEST(JsonlIntegers, StatusWithNullVersionIsRejectedNamingTheField) {
  shard::RunStatus status;
  std::string line = shard::serialize_status(status);
  const std::string version = "\"version\":1";
  line.replace(line.find(version), version.size(), "\"version\":null");
  EXPECT_TRUE(mentions(error_of([&] { shard::parse_status(line); }),
                       "version"));
}

TEST(JsonlIntegers, NegativeCountInAStatusRowIsRejected) {
  shard::RunStatus status;
  status.workers.emplace_back();
  std::string line = shard::serialize_status(status);
  const std::string done = "\"jobs_done\":0";
  line.replace(line.find(done), done.size(), "\"jobs_done\":-1");
  EXPECT_TRUE(mentions(error_of([&] { shard::parse_status(line); }),
                       "jobs_done"));
}

// --- Grammar ---------------------------------------------------------------

TEST(JsonlGrammar, RejectsNonJsonNumbers) {
  for (const char* bad : {"inf", "-inf", "nan", "NaN", "0x10", "+5", "01",
                          "-01", "1.", ".5", "1e", "1e+", "-", "--1"}) {
    EXPECT_THROW(fields_of(std::string("{\"n\":") + bad + "}"), CheckError)
        << bad;
  }
}

TEST(JsonlGrammar, AcceptsJsonNumbers) {
  const std::map<std::string, double> good = {
      {"0", 0.0},      {"-0", -0.0},     {"7", 7.0},
      {"-12.5", -12.5}, {"1e5", 1e5},    {"1E+5", 1e5},
      {"2.5e-3", 2.5e-3}, {"0.1", 0.1}};
  for (const auto& [text, want] : good) {
    EXPECT_EQ(fields_of("{\"n\":" + text + "}").number("n"), want) << text;
  }
}

TEST(JsonlGrammar, UnicodeEscapesNeedFourHexDigitsAndStayAscii) {
  for (const char* bad : {"\\u12zz", "\\u12", "\\u00", "\\u0100",
                          "\\u00e9", "\\ud800", "\\u+123"}) {
    EXPECT_THROW(fields_of(std::string("{\"s\":\"") + bad + "\"}"),
                 CheckError)
        << bad;
  }
  EXPECT_EQ(fields_of("{\"s\":\"\\u0041\\u001f\\u007F\"}").string("s"),
            "A\x1f\x7f");
}

TEST(JsonlGrammar, BoundsNesting) {
  const std::string deep =
      "{\"a\":" + std::string(100, '[') + std::string(100, ']') + "}";
  EXPECT_THROW(fields_of(deep), CheckError);
  const std::string shallow =
      "{\"a\":" + std::string(8, '[') + std::string(8, ']') + "}";
  EXPECT_NO_THROW(fields_of(shallow));
}

// --- One field list, every field required ----------------------------------

// Re-emits a parsed value (keys in map order — readers do not care).
void emit(std::ostream& os, const Value& v) {
  switch (v.kind) {
    case Value::Kind::kNull: os << "null"; break;
    case Value::Kind::kBool: os << (v.b ? "true" : "false"); break;
    case Value::Kind::kNumber: json::write_number(os, v.num); break;
    case Value::Kind::kString: json::write_escaped(os, v.str); break;
    case Value::Kind::kArray: {
      os << '[';
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) os << ',';
        emit(os, v.items[i]);
      }
      os << ']';
      break;
    }
    case Value::Kind::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [key, member] : v.members) {
        if (!first) os << ',';
        first = false;
        json::write_escaped(os, key);
        os << ':';
        emit(os, member);
      }
      os << '}';
      break;
    }
  }
}

// Every object in a parsed tree, depth first (the root first).
void collect_objects(Value& v, std::vector<Value*>& out) {
  if (v.kind == Value::Kind::kObject) out.push_back(&v);
  for (Value& item : v.items) collect_objects(item, out);
  for (auto& [key, member] : v.members) collect_objects(member, out);
}

// Drops every key of every object of `line` in turn; `parse` must throw a
// diagnostic naming the dropped key each time. Returns how many keys were
// dropped.
std::size_t expect_every_key_required(
    const std::string& line,
    const std::function<void(const std::string&)>& parse) {
  Value root;
  root.kind = Value::Kind::kObject;
  root.members = json::parse_object_line(line, "test");
  std::vector<Value*> objects;
  collect_objects(root, objects);
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    for (const auto& [key, member] : objects[i]->members) {
      Value copy = root;
      std::vector<Value*> copies;
      collect_objects(copy, copies);
      copies[i]->members.erase(key);
      std::ostringstream os;
      emit(os, copy);
      const std::string message = error_of([&] { parse(os.str()); });
      EXPECT_TRUE(mentions(message, key) &&
                  message.find("missing field") != std::string::npos)
          << "dropping '" << key << "' from object " << i << " of " << line
          << "\n  gave: " << message;
      ++dropped;
    }
  }
  return dropped;
}

// Lists a record's keys through its own visit_fields.
struct KeyLister {
  std::vector<std::string> keys;
  template <class T>
  void operator()(const char* key, T&) { keys.push_back(key); }
  template <class T>
  void operator()(const char* key, T&, const char*) { keys.push_back(key); }
  void expect(const char* key, const char*) { keys.push_back(key); }
  void expect(const char* key, std::int64_t) { keys.push_back(key); }
};

// The visited record's line carries exactly the visitor's keys, and each
// of them (and every nested key) is required on the way back in.
template <class R>
void expect_record_fields_required(R sample) {
  KeyLister lister;
  visit_fields(sample, lister);
  const std::string line = json::record_line(sample);
  const std::map<std::string, Value> parsed =
      json::parse_object_line(line, "test");
  std::set<std::string> line_keys;
  for (const auto& [key, value] : parsed) line_keys.insert(key);
  EXPECT_EQ(line_keys,
            std::set<std::string>(lister.keys.begin(), lister.keys.end()))
      << line;
  EXPECT_EQ(lister.keys.size(), line_keys.size()) << "duplicate key";
  const std::size_t dropped =
      expect_every_key_required(line, [](const std::string& text) {
        json::parse_record<R>(text, "test");
      });
  EXPECT_GE(dropped, lister.keys.size());
}

obs::HistogramSnapshot hist() {
  obs::HistogramSnapshot h = obs::HistogramSnapshot::with_bounds({1.0, 2.0});
  h.record(1.5);
  return h;
}

fleet::FleetStatusSnapshot fleet_status() {
  fleet::FleetStatusSnapshot s;
  s.ingest_to_step_ns = hist();
  s.shards.emplace_back();
  s.hot_robots.emplace_back();
  s.alarms.emplace_back();
  s.hints.emplace_back();
  return s;
}

shard::RunStatus run_status() {
  shard::RunStatus s;
  s.step_latency = hist();
  s.workers.emplace_back();
  return s;
}

shard::TelemetryRecord telemetry() {
  shard::TelemetryRecord r;
  r.groups["g"] = {1, 1, 0, 0, 1};
  r.step_latency = hist();
  return r;
}

shard::JobOutcome outcome() {
  shard::JobOutcome o;
  o.delays.push_back({"ips", 3, 0.5});
  o.findings.push_back({"inv", "detail", "spec", "shrunk"});
  o.bundle_files = {"b.jsonl"};
  return o;
}

obs::PostmortemBundle bundle() {
  obs::PostmortemBundle b;
  b.trigger = "sensor_alarm";
  b.provenance.sensor_dims = {2, 3};
  b.records.resize(2);
  b.records[0].k = 4;
  b.records[0].pre_step.state = {1.0, kNaN};
  b.records[0].pre_step.health = {0, 1, 0, 0};
  b.records[1].k = 5;
  b.records[1].u = {0.5};
  return b;
}

TEST(JsonlSchemas, EveryVisitedFieldIsRequired) {
  expect_record_fields_required(hist());
  expect_record_fields_required(fleet::ShardStat{});
  expect_record_fields_required(fleet::RobotStat{});
  expect_record_fields_required(fleet::FleetAlarm{});
  expect_record_fields_required(fleet::RebalanceHint{});
  expect_record_fields_required(fleet_status());
  expect_record_fields_required(shard::WorkerStatus{});
  expect_record_fields_required(shard::SupervisionCounters{});
  expect_record_fields_required(run_status());
  expect_record_fields_required(shard::Heartbeat{});
  expect_record_fields_required(shard::TelemetryGroupTally{});
  expect_record_fields_required(telemetry());
  expect_record_fields_required(obs::DetectorStateSnapshot{});
  expect_record_fields_required(obs::FlightRecord{});
  expect_record_fields_required(obs::BundleProvenance{});
  expect_record_fields_required(shard::OutcomeDelay{"ips", 1, 0.5});
  expect_record_fields_required(shard::OutcomeFinding{});
}

// The lines whose field lists carry glue (bundle header and warm-start
// snapshot, checkpoint outcomes, manifests) are held to the same rule
// through their public readers.
TEST(JsonlSchemas, EveryKeyOfEveryLineIsRequired) {
  EXPECT_GT(expect_every_key_required(
                shard::serialize_outcome(outcome()),
                [](const std::string& line) { shard::parse_outcome(line, 1); }),
            0u);

  std::ostringstream os;
  obs::write_bundle(os, bundle());
  std::vector<std::string> lines;
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);  // header, provenance, snapshot, 2 records
  for (std::size_t i = 0; i < lines.size(); ++i) {
    expect_every_key_required(lines[i], [&](const std::string& line) {
      std::string text;
      for (std::size_t j = 0; j < lines.size(); ++j) {
        text += (j == i ? line : lines[j]) + "\n";
      }
      std::istringstream bundle_is(text);
      obs::read_bundle(bundle_is);
    });
  }

  shard::Manifest manifest;
  manifest.shards = 2;
  shard::ManifestJob spec;
  spec.id = "j0";
  spec.spec_text = "scenario";
  shard::ManifestJob library = spec;
  library.id = "j1";
  library.kind = shard::JobKind::kLibrary;
  library.scenario = "S1";
  shard::ManifestJob fuzz = spec;
  fuzz.id = "j2";
  fuzz.kind = shard::JobKind::kFuzz;
  fuzz.platforms = {"khepera"};
  manifest.jobs = {spec, library, fuzz};
  const std::string text = shard::serialize(manifest);
  std::vector<std::string> manifest_lines;
  std::istringstream ms(text);
  for (std::string line; std::getline(ms, line);) {
    manifest_lines.push_back(line);
  }
  for (std::size_t i = 0; i < manifest_lines.size(); ++i) {
    expect_every_key_required(manifest_lines[i], [&](const std::string& line) {
      std::string edited;
      for (std::size_t j = 0; j < manifest_lines.size(); ++j) {
        edited += (j == i ? line : manifest_lines[j]) + "\n";
      }
      shard::parse_manifest(edited);
    });
  }
}

}  // namespace
}  // namespace roboads
