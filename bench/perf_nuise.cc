// Runtime micro-benchmarks (google-benchmark): RoboADS must execute inside
// one control iteration (100 ms on the paper's platforms; the paper notes
// "detection delay is a constant multiple of control iterations", which
// presumes the detector itself never becomes the bottleneck).
//
// Benchmarked: a single NUISE step, one full multi-mode engine iteration
// (M = p estimators + selector), the full detector step (engine + decision
// maker), the LiDAR scan-processing pipeline and the RRT* mission planner.
#include <benchmark/benchmark.h>

#include "core/roboads.h"
#include "dynamics/bicycle.h"
#include "dynamics/diff_drive.h"
#include "eval/batch.h"
#include "eval/khepera.h"
#include "eval/tamiya.h"
#include "sim/lidar.h"

namespace roboads {
namespace {

struct KheperaFixture {
  eval::KheperaPlatform platform;
  Rng rng{99};
  Vector x{0.5, 0.5, 0.3};
  Vector u{0.05, 0.06};
  Vector z;

  KheperaFixture() {
    GaussianSampler noise(
        platform.suite().noise_covariance(platform.suite().all()));
    z = platform.suite().measure(platform.suite().all(), x) +
        noise.sample(rng);
  }
};

void BM_NuiseStepKhepera(benchmark::State& state) {
  KheperaFixture f;
  core::Mode mode{"ref:ips", {1}, {0, 2}};
  core::Nuise nuise(f.platform.model(), f.platform.suite(), mode,
                    f.platform.process_cov());
  const Matrix p = Matrix::identity(3) * 1e-4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nuise.step(f.x, p, f.u, f.z));
  }
}
BENCHMARK(BM_NuiseStepKhepera);

void BM_EngineStepKhepera(benchmark::State& state) {
  KheperaFixture f;
  core::MultiModeEngine engine(
      f.platform.model(), f.platform.suite(),
      core::one_reference_per_sensor(f.platform.suite()),
      f.platform.process_cov(), f.x, Matrix::identity(3) * 1e-4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(f.u, f.z));
  }
}
BENCHMARK(BM_EngineStepKhepera);

// One engine iteration on the §VI complete mode set (2³ − 1 = 7 NUISE
// instances per step), the widest bank a step runs.
void BM_EngineStepCompleteModeSet(benchmark::State& state) {
  KheperaFixture f;
  core::MultiModeEngine engine(
      f.platform.model(), f.platform.suite(),
      core::complete_mode_set(f.platform.suite()), f.platform.process_cov(),
      f.x, Matrix::identity(3) * 1e-4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(f.u, f.z));
  }
  state.counters["modes"] =
      static_cast<double>(engine.modes().size());
}
BENCHMARK(BM_EngineStepCompleteModeSet);

// Batched (scenario, seed) mission throughput: eight independent 60-
// iteration Khepera missions per batch, Arg = WorkflowConfig::num_threads.
void BM_MissionBatchKhepera(benchmark::State& state) {
  eval::KheperaPlatform platform;
  sim::WorkflowConfig workflow_cfg;
  workflow_cfg.num_threads = static_cast<std::size_t>(state.range(0));
  std::vector<eval::MissionJob> jobs;
  for (std::size_t i = 0; i < 8; ++i) {
    jobs.push_back(eval::make_mission_job(
        [&platform, i] { return platform.table2_scenario(i % 11 + 1); },
        100 + i, 60));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval::run_mission_batch(platform, jobs, workflow_cfg));
  }
  state.counters["missions"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_MissionBatchKhepera)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_FullDetectorStepKhepera(benchmark::State& state) {
  KheperaFixture f;
  core::RoboAds detector(f.platform.model(), f.platform.suite(),
                         f.platform.process_cov(), f.x,
                         Matrix::identity(3) * 1e-4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.step(f.u, f.z));
  }
}
BENCHMARK(BM_FullDetectorStepKhepera);

void BM_FullDetectorStepTamiya(benchmark::State& state) {
  eval::TamiyaPlatform platform;
  Rng rng(11);
  const Vector x{1.0, 1.0, 0.5};
  const Vector u{0.4, 0.05};
  GaussianSampler noise(
      platform.suite().noise_covariance(platform.suite().all()));
  const Vector z =
      platform.suite().measure(platform.suite().all(), x) + noise.sample(rng);
  core::RoboAds detector(platform.model(), platform.suite(),
                         platform.process_cov(), x,
                         Matrix::identity(3) * 1e-4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.step(u, z));
  }
}
BENCHMARK(BM_FullDetectorStepTamiya);

void BM_LidarScanAndProcess(benchmark::State& state) {
  const sim::World world(2.0, 1.5);
  sim::LidarConfig cfg;
  cfg.fov = 2.0 * M_PI;
  cfg.beam_count = static_cast<std::size_t>(state.range(0));
  sim::LidarScanner scanner(cfg);
  sim::ScanProcessor processor(sim::ScanProcessorConfig{}, 2.0, 1.5);
  Rng rng(5);
  const Vector pose{0.7, 0.6, 0.4};
  for (auto _ : state) {
    const Vector ranges = scanner.scan(world, pose, rng);
    benchmark::DoNotOptimize(processor.process(scanner, ranges, pose));
  }
}
BENCHMARK(BM_LidarScanAndProcess)->Arg(81)->Arg(241)->Arg(681);

// RRT* with the planner set-up of the mission controllers (eval/khepera.cc,
// eval/tamiya.cc): arg 0 plans the Khepera mission, arg 1 the Tamiya one.
void BM_RrtStarPlan(benchmark::State& state) {
  const bool tamiya = state.range(0) == 1;
  const sim::World world =
      tamiya ? sim::World(8.0, 6.0, {geom::Aabb{{3.2, 2.2}, {4.4, 3.4}}})
             : sim::World(2.0, 1.5, {geom::Aabb{{0.85, 0.55}, {1.15, 0.85}}});
  planning::RrtStarConfig cfg;
  if (tamiya) {
    cfg.step_size = 0.5;
    cfg.rewire_radius = 1.2;
    cfg.goal_radius = 0.3;
    cfg.robot_radius = 0.48;
  } else {
    cfg.robot_radius = 0.20;
  }
  const geom::Vec2 start = tamiya ? geom::Vec2{1.0, 1.0}
                                  : geom::Vec2{0.35, 0.3};
  const geom::Vec2 goal = tamiya ? geom::Vec2{6.8, 4.8}
                                 : geom::Vec2{1.6, 1.2};
  planning::RrtStar planner(world, cfg);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(planner.plan(start, goal, rng));
  }
  state.SetLabel(tamiya ? "tamiya" : "khepera");
}
BENCHMARK(BM_RrtStarPlan)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace roboads

BENCHMARK_MAIN();
