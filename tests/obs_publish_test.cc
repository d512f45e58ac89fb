// The one atomic single-line publisher (obs::json::publish_line) behind the
// campaign status file, worker heartbeats and the fleet status file: a
// failed publish names the file it could not write, and a successful one
// leaves only the published file, which each reader parses back.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>

#include "common/check.h"
#include "fleet/introspect.h"
#include "obs/jsonl.h"
#include "shard/checkpoint.h"
#include "shard/heartbeat.h"
#include "shard/status.h"

namespace roboads {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(ObsPublish, MissingDirectoryThrowsNamingThePath) {
  const std::string path =
      fresh_dir("obs_publish_missing") + "/no_such_dir/status.json";
  try {
    obs::json::publish_line(path, "{}", "status");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("status"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST(ObsPublish, LeavesNoTmpAndEachReaderRoundTrips) {
  const std::string dir = fresh_dir("obs_publish_roundtrip");

  shard::RunStatus status;
  status.total_jobs = 4;
  status.completed = 3;
  const std::string status_file = shard::status_path(dir);
  shard::write_status_file(status_file, status);
  EXPECT_EQ(shard::serialize_status(shard::read_status_file(status_file)),
            shard::serialize_status(status));

  shard::Heartbeat beat;
  beat.label = "s0";
  beat.jobs_done = 7;
  beat.current_job = "j8";
  const std::string beat_file = shard::heartbeat_path(dir, "s0");
  shard::write_heartbeat(beat_file, beat);
  const std::optional<shard::Heartbeat> beat_back =
      shard::read_heartbeat(beat_file);
  ASSERT_TRUE(beat_back.has_value());
  EXPECT_EQ(beat_back->label, "s0");
  EXPECT_EQ(beat_back->jobs_done, 7u);
  EXPECT_EQ(beat_back->current_job, "j8");

  fleet::FleetStatusSnapshot fleet_status;
  fleet_status.seq = 11;
  fleet_status.robots = 32;
  const std::string fleet_file = dir + "/fleet_status.json";
  fleet::write_fleet_status_file(fleet_file, fleet_status);
  EXPECT_EQ(fleet::serialize_fleet_status(
                fleet::read_fleet_status_file(fleet_file)),
            fleet::serialize_fleet_status(fleet_status));

  for (const std::string& file : {status_file, beat_file, fleet_file}) {
    EXPECT_TRUE(fs::exists(file)) << file;
    EXPECT_FALSE(fs::exists(file + ".tmp")) << file;
  }
}

}  // namespace
}  // namespace roboads
