// Full Khepera mission under attack: RRT* planning, PID path tracking, a
// Table II attack scenario, live RoboADS detection, and an ASCII rendering
// of the arena with the driven trajectory.
//
//   ./build/examples/khepera_mission [scenario 1..11]
//     scenario: default 4, IPS spoofing
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "eval/khepera.h"
#include "eval/mission.h"
#include "eval/scoring.h"

using namespace roboads;
using namespace roboads::eval;

namespace {

void render_arena(const KheperaPlatform& platform,
                  const MissionResult& result) {
  constexpr int kCols = 64;
  constexpr int kRows = 24;
  const double w = platform.world().width();
  const double h = platform.world().height();
  std::vector<std::string> grid(kRows, std::string(kCols, ' '));

  auto plot = [&](double x, double y, char c) {
    const int col = static_cast<int>(x / w * (kCols - 1));
    const int row = (kRows - 1) - static_cast<int>(y / h * (kRows - 1));
    if (col >= 0 && col < kCols && row >= 0 && row < kRows) {
      grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = c;
    }
  };

  for (const geom::Aabb& o : platform.world().obstacles()) {
    for (double x = o.min.x; x <= o.max.x; x += w / kCols) {
      for (double y = o.min.y; y <= o.max.y; y += h / kRows) {
        plot(x, y, '#');
      }
    }
  }
  for (const IterationRecord& rec : result.records) {
    const bool alarmed = rec.report.decision.sensor_alarm ||
                         rec.report.decision.actuator_alarm;
    plot(rec.x_true[0], rec.x_true[1], alarmed ? '!' : '.');
  }
  plot(platform.initial_state()[0], platform.initial_state()[1], 'S');
  plot(platform.goal().x, platform.goal().y, 'G');

  std::printf("+%s+\n", std::string(kCols, '-').c_str());
  for (const std::string& row : grid) std::printf("|%s|\n", row.c_str());
  std::printf("+%s+\n", std::string(kCols, '-').c_str());
  std::printf("S start, G goal, # obstacle, . clean trajectory, "
              "! alarm raised\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t scenario_number =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 4;
  if (scenario_number < 1 || scenario_number > 11) {
    std::fprintf(stderr, "usage: %s [scenario 1..11]\n", argv[0]);
    return 1;
  }

  KheperaPlatform platform;
  const attacks::Scenario scenario =
      platform.table2_scenario(scenario_number);
  std::printf("scenario %s\n  %s\n\n", scenario.name().c_str(),
              scenario.description().c_str());

  MissionConfig cfg;
  cfg.iterations = 250;
  cfg.seed = 2024;
  const MissionResult result = run_mission(platform, scenario, cfg);
  const ScenarioScore score = score_mission(result, platform);

  render_arena(platform, result);

  std::printf("\nmission: %zu iterations (%.1f s), goal %s\n",
              result.records.size(),
              static_cast<double>(result.records.size()) * result.dt,
              result.goal_reached ? "reached" : "NOT reached");
  std::printf("identified conditions: %s | %s\n",
              score.sensor_condition_sequence.c_str(),
              score.actuator_condition_sequence.c_str());
  for (const DelayRecord& d : score.delays) {
    std::printf("  %-16s triggered at %.1f s, detected %s\n", d.label.c_str(),
                static_cast<double>(d.triggered_at) * result.dt,
                d.seconds ? (std::to_string(*d.seconds) + " s later").c_str()
                          : "NEVER");
  }
  std::printf("sensor FPR/FNR: %.2f%% / %.2f%%, actuator FPR/FNR: "
              "%.2f%% / %.2f%%\n",
              100.0 * score.sensor.false_positive_rate(),
              100.0 * score.sensor.false_negative_rate(),
              100.0 * score.actuator.false_positive_rate(),
              100.0 * score.actuator.false_negative_rate());
  return 0;
}
