// perfbench — the RoboADS benchmark program.
//
//   perfbench --workload <detector-replay|mission-campaign|fleet-stream>
//             --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//             [--trace-dir <dir>]
//
// Builds its inputs from the seed (set-up, repeated three times and checked
// identical), measures the workload for the given time, checks every output
// against the library's own oracles, and prints one JSON result as the last
// stdout line: end-to-end metrics with --trace 0, per-layer metrics from a
// separate traced run of all three paths with --trace 1. perfbench/README.md
// documents the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <detector-replay|"
               "mission-campaign|fleet-stream> --seed <n> --seconds <s> "
               "--trace <0|1> [--size full|tiny] [--trace-dir <dir>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 120.0) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      a.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage("bad --size " + value);
      a.tiny = value == "tiny";
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.workload != "detector-replay" && a.workload != "mission-campaign" &&
      a.workload != "fleet-stream") {
    usage("unknown workload " + a.workload);
  }
  return a;
}

void report(const Outcome& o, RunResult& result) {
  result.attempted += o.attempted;
  result.failed += o.failed;
  if (!o.notes.empty()) std::cout << o.notes;
  for (const std::string& f : o.failures) std::cout << "FAIL: " << f << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Fingerprint fp = fingerprint();
  std::cout << describe(fp) << "\n";
  if (!fp.ndebug || !fp.optimized) {
    std::cerr << "perfbench: refusing to time a build without NDEBUG and "
                 "optimization (build type "
              << fp.build_type << ")\n";
    return 3;
  }

  CorpusSize size;
  FleetShape shape;
  if (args.tiny) {
    size.khepera_scenarios = 2;
    size.tamiya_scenarios = 1;
    size.faulted_missions = 1;
    size.iterations = 40;
    shape.robots = 6;
    shape.warmup_frames = 2;
  }

  const Platforms platforms;
  const std::vector<MissionSpec> specs =
      mission_specs(platforms, args.seed, size);
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.threads = cpu_count();
  const bool fleet = args.workload == "fleet-stream";

  // Set-up, three times: record the corpus serially (the oracle for every
  // path) and, for fleet-stream, build the rig. The recordings must agree.
  RunResult result;
  std::vector<double> setup_s;
  Corpus corpus;
  std::shared_ptr<FleetRig> rig;
  std::uint64_t first_digest = 0;
  for (int rep = 0; rep < 3; ++rep) {
    // Free the previous repetition's inputs first, so that peak RSS holds
    // one corpus and one rig and every repetition times the same work.
    rig.reset();
    corpus = Corpus{};
    const std::uint64_t t0 = now_ns();
    corpus = record(specs);
    ctx.corpus = &corpus;
    if (fleet) rig = make_fleet_rig(ctx, shape);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (rep == 0) {
      first_digest = corpus.digest;
    } else if (corpus.digest != first_digest) {
      ++result.failed;
      std::cout << "FAIL: set-up " << rep
                << " recorded a different corpus (run_mission not "
                   "deterministic)\n";
    }
  }
  std::printf("corpus: %zu missions, %zu steps, %zu masked (%.2f%%), "
              "digest %016llx\n",
              corpus.missions.size(), corpus.steps, corpus.masked_steps,
              100.0 * static_cast<double>(corpus.masked_steps) /
                  static_cast<double>(corpus.steps),
              static_cast<unsigned long long>(corpus.digest));

  if (!args.trace) {
    const Outcome o = args.workload == "detector-replay"
                          ? run_detector_replay(ctx)
                      : args.workload == "mission-campaign"
                          ? run_mission_campaign(ctx)
                          : run_fleet_stream(*rig, ctx);
    report(o, result);
    std::printf("%s: threads=%zu/%zu throughput=%.3f/s\n",
                args.workload.c_str(), o.threads, cpu_count(),
                o.throughput_per_s);
    if (o.latency_ms.n > 0) {
      std::printf("%s: samples=%zu mean=%.6f ms p50=%.6f ms p99=%.6f ms "
                  "p%.2f=%.6f ms\n",
                  args.workload.c_str(), o.latency_ms.n, o.latency_ms.mean,
                  o.latency_ms.p50, o.latency_ms.p99,
                  o.latency_ms.tail_q * 100.0, o.latency_ms.tail);
    }
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("throughput_per_s", o.throughput_per_s, "1/s");
  } else {
    // The traced run covers all three paths, a third of the time each, and
    // writes one spans JSONL per path.
    if (!rig) rig = make_fleet_rig(ctx, shape);
    RunContext slice = ctx;
    slice.seconds = args.seconds / 3.0;
    // One file per path, overwritten by the next traced run.
    const std::string stem = args.trace_dir + "/spans-";
    slice.trace_path = stem + "detector-replay.jsonl";
    const Outcome d = trace_detector_replay(slice);
    slice.trace_path = stem + "mission-campaign.jsonl";
    const Outcome m = trace_mission_campaign(slice);
    slice.trace_path = stem + "fleet-stream.jsonl";
    const Outcome f = trace_fleet_stream(*rig, slice);
    for (const Outcome* o : {&d, &m, &f}) {
      report(*o, result);
      for (const Metric& l : o->layers) result.metrics.push_back(l);
    }
    std::cout << "spans: " << stem << "{detector-replay,mission-campaign,"
              << "fleet-stream}.jsonl\n";
  }
  result.correct = result.failed == 0;
  std::cout << result.json() << std::endl;
  return result.correct ? 0 : 1;
}
