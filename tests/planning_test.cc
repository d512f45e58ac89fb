#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "dynamics/bicycle.h"
#include "dynamics/diff_drive.h"
#include "planning/tracker.h"

namespace roboads::planning {
namespace {

sim::World arena() {
  return sim::World(2.0, 1.5, {geom::Aabb{{0.85, 0.55}, {1.15, 0.85}}});
}

bool path_collision_free(const sim::World& world, const PlannedPath& path,
                         double radius) {
  for (std::size_t i = 1; i < path.waypoints.size(); ++i) {
    if (!world.segment_free(path.waypoints[i - 1], path.waypoints[i], radius))
      return false;
  }
  return true;
}

TEST(RrtStar, RejectsBadConfigAndEndpoints) {
  const sim::World world = arena();
  RrtStarConfig cfg;
  cfg.step_size = 0.0;
  EXPECT_THROW(RrtStar(world, cfg), CheckError);
  RrtStar planner(world);
  Rng rng(1);
  EXPECT_THROW(planner.plan({1.0, 0.7}, {1.6, 1.2}, rng), CheckError);
  EXPECT_THROW(planner.plan({0.3, 0.3}, {1.0, 0.7}, rng), CheckError);
}

TEST(RrtStar, FindsCollisionFreePathAroundObstacle) {
  const sim::World world = arena();
  RrtStar planner(world);
  Rng rng(42);
  const geom::Vec2 start{0.35, 0.30};
  const geom::Vec2 goal{1.60, 1.20};
  const auto path = planner.plan(start, goal, rng);
  ASSERT_TRUE(path.has_value());
  ASSERT_GE(path->waypoints.size(), 2u);
  EXPECT_EQ(path->waypoints.front(), start);
  EXPECT_EQ(path->waypoints.back(), goal);
  EXPECT_TRUE(path_collision_free(world, *path, RrtStarConfig{}.robot_radius));
  // Path cost is consistent with the waypoints and at least the straight-
  // line distance (which is blocked here).
  EXPECT_NEAR(path->cost, path->length(), 1e-9);
  EXPECT_GE(path->length(), geom::distance(start, goal) - 1e-9);
}

TEST(RrtStar, SmoothingShortensWithoutCollisions) {
  const sim::World world = arena();
  RrtStar planner(world);
  Rng rng(7);
  const auto path = planner.plan({0.35, 0.30}, {1.60, 1.20}, rng);
  ASSERT_TRUE(path.has_value());
  const PlannedPath smoothed = planner.smooth(*path, rng);
  EXPECT_LE(smoothed.length(), path->length() + 1e-9);
  EXPECT_TRUE(
      path_collision_free(world, smoothed, RrtStarConfig{}.robot_radius));
  EXPECT_EQ(smoothed.waypoints.front(), path->waypoints.front());
  EXPECT_EQ(smoothed.waypoints.back(), path->waypoints.back());
}

TEST(RrtStar, DeterministicPerSeed) {
  const sim::World world = arena();
  RrtStar planner(world);
  Rng a(9), b(9);
  const auto pa = planner.plan({0.35, 0.30}, {1.60, 1.20}, a);
  const auto pb = planner.plan({0.35, 0.30}, {1.60, 1.20}, b);
  ASSERT_TRUE(pa && pb);
  ASSERT_EQ(pa->waypoints.size(), pb->waypoints.size());
  for (std::size_t i = 0; i < pa->waypoints.size(); ++i)
    EXPECT_EQ(pa->waypoints[i], pb->waypoints[i]);
}

// FNV-1a over the raw bits of every waypoint coordinate and the cost, so a
// one-ulp change anywhere in a plan changes the digest.
struct BitDigest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(const PlannedPath& p) {
    add(static_cast<double>(p.waypoints.size()));
    for (const geom::Vec2& w : p.waypoints) {
      add(w.x);
      add(w.y);
    }
    add(p.cost);
  }
};

struct MissionPlanCase {
  sim::World world;
  RrtStarConfig cfg;
  geom::Vec2 start;
  geom::Vec2 goal;
};

// The planner set-ups of the two mission controllers (eval/khepera.cc,
// eval/tamiya.cc): same arenas, obstacles, endpoints and padded radii.
MissionPlanCase khepera_mission_case() {
  RrtStarConfig cfg;
  cfg.robot_radius = 0.20;
  return {arena(), cfg, {0.35, 0.30}, {1.60, 1.20}};
}

MissionPlanCase tamiya_mission_case() {
  RrtStarConfig cfg;
  cfg.step_size = 0.5;
  cfg.rewire_radius = 1.2;
  cfg.goal_radius = 0.3;
  cfg.robot_radius = 0.48;
  return {sim::World(8.0, 6.0, {geom::Aabb{{3.2, 2.2}, {4.4, 3.4}}}), cfg,
          {1.0, 1.0}, {6.8, 4.8}};
}

// Digests of plan() and of smooth() applied to it, over seeds 1–40.
std::pair<std::uint64_t, std::uint64_t> plan_digests(const MissionPlanCase& c) {
  const RrtStar planner(c.world, c.cfg);
  BitDigest planned, smoothed;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const auto path = planner.plan(c.start, c.goal, rng);
    if (!path) {
      planned.add(-1.0);
      continue;
    }
    planned.add(*path);
    smoothed.add(planner.smooth(*path, rng));
  }
  return {planned.h, smoothed.h};
}

// Pins the exact bits of the mission plans: any planner speed-up must leave
// these digests unchanged.
TEST(RrtStar, PlanDigestsArePinned) {
  const auto khepera = plan_digests(khepera_mission_case());
  EXPECT_EQ(khepera.first, 0xe182e503c31adb9eull);
  EXPECT_EQ(khepera.second, 0x4c7c8480bd4f3c94ull);
  const auto tamiya = plan_digests(tamiya_mission_case());
  EXPECT_EQ(tamiya.first, 0x974294d31e1dbad9ull);
  EXPECT_EQ(tamiya.second, 0x292550ea9d19e4d4ull);
}

// Test oracle: the planner as a plain RRT*, with ascending linear scans over
// all nodes for the nearest node, the parent choice and the rewiring.
std::optional<PlannedPath> linear_scan_plan(const sim::World& world,
                                            const RrtStarConfig& cfg,
                                            const geom::Vec2& start,
                                            const geom::Vec2& goal, Rng& rng) {
  struct Node {
    geom::Vec2 position;
    std::size_t parent = 0;
    double cost = 0.0;
  };
  const double r = cfg.robot_radius;
  std::vector<Node> nodes{{start, 0, 0.0}};
  std::optional<std::size_t> best_goal_node;
  double best_goal_cost = std::numeric_limits<double>::infinity();
  for (std::size_t it = 0; it < cfg.max_iterations; ++it) {
    const geom::Vec2 sample =
        rng.uniform() < cfg.goal_bias
            ? goal
            : geom::Vec2{rng.uniform(0.0, world.width()),
                         rng.uniform(0.0, world.height())};
    std::size_t nearest = 0;
    double nearest_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const double d2 = (nodes[i].position - sample).norm_squared();
      if (d2 < nearest_d2) {
        nearest_d2 = d2;
        nearest = i;
      }
    }
    const geom::Vec2 from = nodes[nearest].position;
    const double dist = std::sqrt(nearest_d2);
    if (dist < 1e-9) continue;
    const geom::Vec2 to =
        dist <= cfg.step_size ? sample
                              : from + (sample - from) * (cfg.step_size / dist);
    if (!world.segment_free(from, to, r)) continue;
    std::size_t parent = nearest;
    double cost = nodes[nearest].cost + geom::distance(from, to);
    std::vector<std::size_t> neighbors;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const double d = geom::distance(nodes[i].position, to);
      if (d > cfg.rewire_radius) continue;
      neighbors.push_back(i);
      const double c = nodes[i].cost + d;
      if (c < cost && world.segment_free(nodes[i].position, to, r)) {
        cost = c;
        parent = i;
      }
    }
    const std::size_t new_index = nodes.size();
    nodes.push_back({to, parent, cost});
    for (std::size_t i : neighbors) {
      const double through = cost + geom::distance(to, nodes[i].position);
      if (through + 1e-12 < nodes[i].cost &&
          world.segment_free(to, nodes[i].position, r)) {
        nodes[i].parent = new_index;
        nodes[i].cost = through;
      }
    }
    const double to_goal = geom::distance(to, goal);
    if (to_goal <= cfg.goal_radius && world.segment_free(to, goal, r)) {
      const double total = cost + to_goal;
      if (total < best_goal_cost) {
        best_goal_cost = total;
        best_goal_node = new_index;
      }
    }
  }
  if (!best_goal_node) return std::nullopt;
  std::vector<geom::Vec2> reversed{goal};
  for (std::size_t i = *best_goal_node; i != 0; i = nodes[i].parent)
    reversed.push_back(nodes[i].position);
  reversed.push_back(start);
  std::reverse(reversed.begin(), reversed.end());
  PlannedPath path;
  path.waypoints = std::move(reversed);
  path.cost = best_goal_cost;
  return path;
}

// The grid-indexed planner builds the same tree as the linear scans: the
// same waypoints and cost, bit for bit, and the same rng draws, on arenas
// that stress the grid's edges.
TEST(RrtStar, MatchesLinearScanReference) {
  struct Case {
    const char* name;
    sim::World world;
    RrtStarConfig cfg;
    geom::Vec2 start;
    geom::Vec2 goal;
  };
  const auto config = [](double step, double rewire, double goal_radius,
                         double robot_radius) {
    RrtStarConfig cfg;
    cfg.max_iterations = 1500;
    cfg.step_size = step;
    cfg.rewire_radius = rewire;
    cfg.goal_radius = goal_radius;
    cfg.robot_radius = robot_radius;
    return cfg;
  };
  const std::vector<Case> cases = {
      {"arena not a multiple of the radius",
       sim::World(2.05, 1.37, {geom::Aabb{{0.8, 0.5}, {1.1, 0.9}}}),
       config(0.15, 0.4, 0.1, 0.06), {0.3, 0.3}, {1.7, 1.1}},
      {"radius covers the arena: one cell",
       sim::World(1.0, 0.8, {geom::Aabb{{0.45, 0.2}, {0.55, 0.6}}}),
       config(0.1, 1.5, 0.08, 0.03), {0.15, 0.4}, {0.85, 0.4}},
      {"start and goal on cell borders",
       sim::World(2.0, 1.5, {geom::Aabb{{0.85, 0.55}, {1.15, 0.85}}}),
       config(0.15, 0.25, 0.1, 0.06), {0.5, 0.25}, {1.5, 1.25}},
      {"no obstacles", sim::World(3.0, 2.0), config(0.3, 0.6, 0.2, 0.1),
       {0.2, 0.2}, {2.6, 1.8}},
      {"more cells than the grid keeps",
       sim::World(40.0, 30.0, {geom::Aabb{{10.0, 5.0}, {12.0, 25.0}}}),
       config(0.4, 0.4, 0.5, 0.2), {2.0, 2.0}, {30.0, 28.0}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const RrtStar planner(c.world, c.cfg);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(seed);
      Rng fast_rng(seed), ref_rng(seed);
      const auto fast = planner.plan(c.start, c.goal, fast_rng);
      const auto ref =
          linear_scan_plan(c.world, c.cfg, c.start, c.goal, ref_rng);
      ASSERT_EQ(fast.has_value(), ref.has_value());
      EXPECT_EQ(fast_rng.uniform(), ref_rng.uniform());
      if (!ref) continue;
      ASSERT_EQ(fast->waypoints.size(), ref->waypoints.size());
      for (std::size_t i = 0; i < ref->waypoints.size(); ++i)
        EXPECT_EQ(fast->waypoints[i], ref->waypoints[i]) << "waypoint " << i;
      EXPECT_EQ(fast->cost, ref->cost);
    }
  }
}

TEST(Pid, ProportionalAndClampedIntegral) {
  Pid pid(2.0, 1.0, 0.0, 0.1, 0.5);
  // First update: P + I only (no derivative history).
  EXPECT_NEAR(pid.update(1.0), 2.0 + 0.1, 1e-12);
  // Integral clamps at the limit under persistent error.
  double out = 0.0;
  for (int i = 0; i < 100; ++i) out = pid.update(1.0);
  EXPECT_NEAR(out, 2.0 + 0.5, 1e-12);
  pid.reset();
  EXPECT_NEAR(pid.update(0.0), 0.0, 1e-12);
  EXPECT_THROW(Pid(1.0, 0.0, 0.0, 0.0, 1.0), CheckError);
}

TEST(Pid, DerivativeKicksOnErrorChange) {
  Pid pid(0.0, 0.0, 1.0, 0.5, 1.0);
  EXPECT_NEAR(pid.update(1.0), 0.0, 1e-12);  // no previous error yet
  EXPECT_NEAR(pid.update(2.0), 2.0, 1e-12);  // (2-1)/0.5
}

TEST(DiffDriveTracker, DrivesTheModelToTheGoal) {
  const sim::World world = arena();
  RrtStar planner(world);
  Rng rng(11);
  const auto path = planner.plan({0.35, 0.30}, {1.60, 1.20}, rng);
  ASSERT_TRUE(path.has_value());

  dyn::DiffDrive model({.axle_length = 0.089, .dt = 0.1});
  DiffDrivePathTracker tracker(planner.smooth(*path, rng), model.dt());

  Vector pose{0.35, 0.30, 0.6};
  bool reached = false;
  for (int k = 0; k < 1200 && !reached; ++k) {
    const Vector u = tracker.control(pose);
    EXPECT_LE(std::abs(u[0]), DiffDriveTrackerConfig{}.max_wheel_speed + 1e-9);
    EXPECT_LE(std::abs(u[1]), DiffDriveTrackerConfig{}.max_wheel_speed + 1e-9);
    pose = model.step(pose, u);
    reached = tracker.reached(pose);
    ASSERT_TRUE(world.free({pose[0], pose[1]}))
        << "collision at iteration " << k;
  }
  EXPECT_TRUE(reached);
  EXPECT_NEAR(pose[0], 1.60, 0.1);
  EXPECT_NEAR(pose[1], 1.20, 0.1);
}

TEST(DiffDriveTracker, StopsAtGoal) {
  PlannedPath path;
  path.waypoints = {{0.0, 0.0}, {1.0, 0.0}};
  DiffDrivePathTracker tracker(path, 0.1);
  const Vector u = tracker.control(Vector{1.0, 0.0, 0.0});
  EXPECT_EQ(u, (Vector{0.0, 0.0}));
  EXPECT_TRUE(tracker.reached(Vector{1.0, 0.0, 0.0}));
}

TEST(BicycleTracker, DrivesTheCarToTheGoal) {
  const sim::World world(8.0, 6.0, {geom::Aabb{{3.2, 2.2}, {4.4, 3.4}}});
  RrtStarConfig rrt_cfg;
  rrt_cfg.step_size = 0.5;
  rrt_cfg.rewire_radius = 1.2;
  rrt_cfg.goal_radius = 0.3;
  rrt_cfg.robot_radius = 0.2;
  RrtStar planner(world, rrt_cfg);
  Rng rng(23);
  const auto path = planner.plan({1.0, 1.0}, {6.8, 4.8}, rng);
  ASSERT_TRUE(path.has_value());

  dyn::KinematicBicycle model;
  BicyclePathTracker tracker(planner.smooth(*path, rng), model.dt());

  Vector pose{1.0, 1.0, 0.5};
  bool reached = false;
  for (int k = 0; k < 1500 && !reached; ++k) {
    const Vector u = tracker.control(pose);
    EXPECT_LE(std::abs(u[1]), BicycleTrackerConfig{}.max_steer + 1e-9);
    EXPECT_GE(u[0], 0.0);
    EXPECT_LE(u[0], BicycleTrackerConfig{}.cruise_speed + 1e-9);
    pose = model.step(pose, u);
    reached = tracker.reached(pose);
  }
  EXPECT_TRUE(reached);
}

TEST(BicycleTracker, StopsAtGoal) {
  PlannedPath path;
  path.waypoints = {{0.0, 0.0}, {1.0, 0.0}};
  BicyclePathTracker tracker(path, 0.1);
  EXPECT_EQ(tracker.control(Vector{1.0, 0.0, 0.0}), (Vector{0.0, 0.0}));
}

TEST(WaypointFollower, AdvancesThroughWaypoints) {
  PlannedPath path;
  path.waypoints = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  WaypointFollower follower(path, 0.3, 0.1);
  // Far from the first waypoint: carrot is waypoint 1.
  EXPECT_EQ(follower.carrot({0.0, 0.0}), (geom::Vec2{1.0, 0.0}));
  // Within lookahead of waypoint 1: advances to the final waypoint.
  EXPECT_EQ(follower.carrot({0.85, 0.0}), (geom::Vec2{2.0, 0.0}));
  EXPECT_FALSE(follower.reached({1.0, 0.0}));
  EXPECT_TRUE(follower.reached({1.95, 0.0}));
  PlannedPath degenerate;
  degenerate.waypoints = {{0.0, 0.0}};
  EXPECT_THROW(WaypointFollower(degenerate, 0.3, 0.1), CheckError);
}

}  // namespace
}  // namespace roboads::planning
