#include "shard/manifest.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/jsonl.h"
#include "scenario/library.h"

namespace roboads::shard {
namespace {

namespace json = obs::json;

constexpr char kManifestName[] = "roboads-shard-manifest";

[[noreturn]] void manifest_error(std::size_t line, const std::string& what) {
  throw ManifestError("manifest line " + std::to_string(line) + ": " + what);
}

JobKind kind_from(const std::string& word, std::size_t line) {
  if (word == "spec") return JobKind::kSpec;
  if (word == "library") return JobKind::kLibrary;
  if (word == "fuzz") return JobKind::kFuzz;
  manifest_error(line, "unknown job kind \"" + word + "\"");
}

// The header line.
template <class Shards, class Jobs, class V>
void visit_header(Shards& shards, Jobs& jobs, V& v) {
  json::schema_tag(v, "manifest", kManifestName, Manifest::kVersion);
  v("shards", shards);
  v("jobs", jobs);
}

// A job line's kind-specific tail; the common head (event, id, shard,
// kind, group) is checked field by field as it is read.
template <class Job, class V>
void visit_kind_fields(Job& job, V& v) {
  switch (job.kind) {
    case JobKind::kSpec:
      v("seed", job.seed);
      v("iterations", job.iterations);
      v("spec", job.spec_text);
      break;
    case JobKind::kLibrary:
      v("seed", job.seed);
      v("iterations", job.iterations);
      v("scenario", job.scenario);
      break;
    case JobKind::kFuzz:
      v("fuzz_seed", job.fuzz_seed);
      v("fuzz_index", job.fuzz_index);
      v("fuzz_iterations", job.fuzz_iterations);
      v("max_attacks", job.max_attacks);
      v("fault_probability", job.fault_probability);
      v("platforms", job.platforms);
      break;
  }
}

void write_job(std::ostream& os, const ManifestJob& job) {
  json::write_object(os, [&](json::FieldWriter& v) {
    v.expect("event", "job");
    v("id", job.id);
    v("shard", job.shard);
    v.expect("kind", to_string(job.kind));
    v("group", job.group);
    visit_kind_fields(job, v);
  });
  os << '\n';
}

}  // namespace

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kSpec: return "spec";
    case JobKind::kLibrary: return "library";
    case JobKind::kFuzz: return "fuzz";
  }
  return "?";
}

std::string serialize(const Manifest& manifest) {
  std::ostringstream os;
  const std::size_t jobs = manifest.jobs.size();
  json::write_object(os, [&](json::FieldWriter& v) {
    visit_header(manifest.shards, jobs, v);
  });
  os << '\n';
  for (const ManifestJob& job : manifest.jobs) write_job(os, job);
  return os.str();
}

namespace {

Manifest parse_manifest_impl(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t num = 0;
  Manifest manifest;
  bool saw_header = false;
  std::size_t declared_jobs = 0;
  while (std::getline(is, line)) {
    ++num;
    if (line.empty()) continue;
    const std::string context = "manifest line " + std::to_string(num);
    json::Fields f(json::parse_object_line(line, context), context);
    const std::string& event = f.string("event");
    if (!saw_header) {
      if (event != "manifest") {
        manifest_error(num, "expected the manifest header line first");
      }
      json::FieldReader header(f);
      visit_header(manifest.shards, declared_jobs, header);
      if (manifest.shards == 0) manifest_error(num, "shards must be >= 1");
      saw_header = true;
      continue;
    }
    if (event != "job") {
      manifest_error(num, "unexpected event \"" + event + "\"");
    }
    ManifestJob job;
    job.id = f.string("id");
    if (job.id.empty()) manifest_error(num, "job id must be non-empty");
    job.shard = f.unsigned_integer("shard");
    if (job.shard >= manifest.shards) {
      manifest_error(num, "job \"" + job.id + "\" assigned to shard " +
                              std::to_string(job.shard) + " of " +
                              std::to_string(manifest.shards));
    }
    job.kind = kind_from(f.string("kind"), num);
    job.group = f.string("group");
    json::FieldReader tail(f);
    visit_kind_fields(job, tail);
    for (const ManifestJob& seen : manifest.jobs) {
      if (seen.id == job.id) {
        manifest_error(num, "duplicate job id \"" + job.id + "\"");
      }
    }
    manifest.jobs.push_back(std::move(job));
  }
  if (!saw_header) throw ManifestError("manifest parse error: empty input");
  if (manifest.jobs.size() != declared_jobs) {
    throw ManifestError("manifest declares " + std::to_string(declared_jobs) +
                        " jobs but carries " +
                        std::to_string(manifest.jobs.size()));
  }
  return manifest;
}

}  // namespace

Manifest parse_manifest(const std::string& text) {
  // JSON-level problems (unparseable line, missing/mistyped field) surface
  // as ManifestError too: to a caller, a line that is not JSON and a line
  // with the wrong fields are the same kind of bad input file.
  try {
    return parse_manifest_impl(text);
  } catch (const ManifestError&) {
    throw;
  } catch (const std::exception& e) {
    throw ManifestError(e.what());
  }
}

void write_manifest_file(const std::string& path, const Manifest& manifest) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw ManifestError("cannot open " + path + " for writing");
  os << serialize(manifest);
  if (!os.flush()) throw ManifestError("failed writing " + path);
}

Manifest read_manifest_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw ManifestError("cannot open " + path);
  std::ostringstream text;
  text << is.rdbuf();
  return parse_manifest(text.str());
}

Manifest table2_manifest(const std::vector<std::uint64_t>& seeds,
                         std::size_t shards, std::size_t iterations) {
  Manifest manifest;
  manifest.shards = shards;
  const std::vector<scenario::ScenarioSpec> specs =
      scenario::khepera_table2_specs();
  std::size_t i = 0;
  for (std::uint64_t seed : seeds) {
    for (std::size_t n = 1; n <= specs.size(); ++n) {
      ManifestJob job;
      char id[16];
      std::snprintf(id, sizeof(id), "j%05zu", i);
      job.id = id;
      job.shard = i % shards;
      job.kind = JobKind::kLibrary;
      job.group = "seed-" + std::to_string(seed);
      // The bench/seed_robustness convention: each scenario of a
      // replication flies at seed*1000 + its Table II number.
      job.seed = seed * 1000 + n;
      job.iterations = iterations;
      job.scenario = specs[n - 1].name;
      manifest.jobs.push_back(std::move(job));
      ++i;
    }
  }
  return manifest;
}

Manifest fuzz_manifest(const scenario::FuzzConfig& config,
                       std::size_t shards) {
  Manifest manifest;
  manifest.shards = shards;
  for (std::size_t i = 0; i < config.campaigns; ++i) {
    ManifestJob job;
    char id[16];
    std::snprintf(id, sizeof(id), "j%05zu", i);
    job.id = id;
    job.shard = i % shards;
    job.kind = JobKind::kFuzz;
    job.group = "fuzz";
    job.fuzz_seed = config.seed;
    job.fuzz_index = i;
    job.fuzz_iterations = config.iterations;
    job.max_attacks = config.max_attacks;
    job.fault_probability = config.fault_probability;
    job.platforms = config.platforms;
    manifest.jobs.push_back(std::move(job));
  }
  return manifest;
}

std::vector<std::uint64_t> default_seed_series(std::size_t n) {
  static constexpr std::uint64_t kClassic[] = {11, 23, 37, 59, 71};
  std::vector<std::uint64_t> seeds;
  seeds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    seeds.push_back(i < 5 ? kClassic[i] : 71 + 12 * (i - 4));
  }
  return seeds;
}

}  // namespace roboads::shard
