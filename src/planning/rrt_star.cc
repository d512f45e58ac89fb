#include "planning/rrt_star.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

namespace roboads::planning {

using geom::Vec2;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A node position within `pad` of a query point, with a lower bound on its
// distance and, once computed, the exact distance.
struct NearNode {
  std::size_t index;
  Vec2 position;
  double lb;        // <= geom::distance to the query point
  double d = -1.0;  // geom::distance to the query point; -1 until computed
};

// A lower bound on geom::distance (std::hypot) from the squared distance of
// the same two points. sqrt(d2) is within a few ulps of the exact distance
// and hypot within one, so the 1e-12 shrink keeps it below. A subnormal d2
// carries no relative accuracy, so it bounds nothing.
double distance_lower_bound(double d2) {
  return d2 >= std::numeric_limits<double>::min()
             ? std::sqrt(d2) * (1.0 - 1e-12)
             : 0.0;
}

// Node positions bucketed by a uniform grid over the arena. Rewiring never
// moves a node, so each stays in the cell it was inserted into. A point
// beyond the arena is clamped into the border cell, so a border cell reaches
// to infinity on its outer side.
class NodeGrid {
 public:
  NodeGrid(double width, double height, double side) : side_(side) {
    // The searches are exact for any cell side; the cap only keeps a radius
    // tiny against the arena from allocating a huge grid of empty cells.
    while (std::ceil(width / side_) * std::ceil(height / side_) > kMaxCells)
      side_ *= 2.0;
    cols_ = static_cast<std::ptrdiff_t>(std::ceil(width / side_));
    rows_ = static_cast<std::ptrdiff_t>(std::ceil(height / side_));
    cells_.resize(static_cast<std::size_t>(cols_ * rows_));
  }

  void insert(const Vec2& p, std::size_t index) {
    cell(col(p.x), row(p.y)).push_back({p, index});
  }

  // The minimum of ((p_i - q).norm_squared(), i) over all nodes: what a scan
  // in ascending index with a strict `<` returns. Rings of cells are
  // searched outward from q's cell. A node in a cell outside the searched
  // block lies at least `gap` from q, where gap is q's distance to the
  // nearest block side that is not on the grid border. The search stops once
  // that bound, shrunk by a relative 1e-9 and by 1e-9 cells for the rounding
  // of floor(x / side) and of the side coordinates, squares to more than the
  // best d²: an unsearched node can then neither be closer nor tie.
  std::pair<std::size_t, double> nearest(const Vec2& q) const {
    std::size_t best = 0;
    double best_d2 = kInf;
    const std::ptrdiff_t c = col(q.x);
    const std::ptrdiff_t r = row(q.y);
    for (std::ptrdiff_t k = 0;; ++k) {
      const std::ptrdiff_t c0 = c - k, c1 = c + k, r0 = r - k, r1 = r + k;
      for (std::ptrdiff_t y = std::max<std::ptrdiff_t>(r0, 0);
           y <= std::min(r1, rows_ - 1); ++y) {
        for (std::ptrdiff_t x = std::max<std::ptrdiff_t>(c0, 0);
             x <= std::min(c1, cols_ - 1); ++x) {
          if (y != r0 && y != r1 && x != c0 && x != c1) continue;  // inner
          for (const Entry& e : cell(x, y)) {
            const double d2 = (e.position - q).norm_squared();
            if (d2 < best_d2 || (d2 == best_d2 && e.index < best)) {
              best_d2 = d2;
              best = e.index;
            }
          }
        }
      }
      double gap = kInf;
      if (c0 > 0) gap = std::min(gap, q.x - static_cast<double>(c0) * side_);
      if (c1 < cols_ - 1)
        gap = std::min(gap, static_cast<double>(c1 + 1) * side_ - q.x);
      if (r0 > 0) gap = std::min(gap, q.y - static_cast<double>(r0) * side_);
      if (r1 < rows_ - 1)
        gap = std::min(gap, static_cast<double>(r1 + 1) * side_ - q.y);
      if (gap == kInf) break;  // the block covers the whole grid
      const double bound =
          std::max(0.0, gap * (1.0 - 1e-9) - 1e-9 * side_);
      if (bound * bound > best_d2) break;
    }
    return {best, best_d2};
  }

  // Appends every node with (p_i - q).norm_squared() <= pad², in cell order
  // rather than index order.
  void gather(const Vec2& q, double pad, std::vector<NearNode>& out) const {
    const double pad2 = pad * pad;
    for (std::ptrdiff_t y = row(q.y - pad); y <= row(q.y + pad); ++y) {
      for (std::ptrdiff_t x = col(q.x - pad); x <= col(q.x + pad); ++x) {
        for (const Entry& e : cell(x, y)) {
          const double d2 = (e.position - q).norm_squared();
          if (d2 <= pad2)
            out.push_back({e.index, e.position, distance_lower_bound(d2)});
        }
      }
    }
  }

 private:
  struct Entry {
    Vec2 position;
    std::size_t index;
  };

  static constexpr double kMaxCells = 4096.0;

  // floor(v) clamped to [0, n - 1], compared as a double before the cast so
  // no out-of-range value is converted; NaN lands in cell 0.
  static std::ptrdiff_t clamped_floor(double v, std::ptrdiff_t n) {
    const double f = std::floor(v);
    if (!(f > 0.0)) return 0;
    if (f >= static_cast<double>(n - 1)) return n - 1;
    return static_cast<std::ptrdiff_t>(f);
  }
  std::ptrdiff_t col(double x) const { return clamped_floor(x / side_, cols_); }
  std::ptrdiff_t row(double y) const { return clamped_floor(y / side_, rows_); }

  std::vector<Entry>& cell(std::ptrdiff_t x, std::ptrdiff_t y) {
    return cells_[static_cast<std::size_t>(y * cols_ + x)];
  }
  const std::vector<Entry>& cell(std::ptrdiff_t x, std::ptrdiff_t y) const {
    return cells_[static_cast<std::size_t>(y * cols_ + x)];
  }

  double side_;
  std::ptrdiff_t cols_ = 1;
  std::ptrdiff_t rows_ = 1;
  std::vector<std::vector<Entry>> cells_;
};

}  // namespace

double PlannedPath::length() const {
  double acc = 0.0;
  for (std::size_t i = 1; i < waypoints.size(); ++i)
    acc += geom::distance(waypoints[i - 1], waypoints[i]);
  return acc;
}

RrtStar::RrtStar(const sim::World& world, RrtStarConfig config)
    : world_(world), config_(config) {
  ROBOADS_CHECK(config_.step_size > 0.0, "step size must be positive");
  ROBOADS_CHECK(config_.goal_radius > 0.0, "goal radius must be positive");
  ROBOADS_CHECK(config_.rewire_radius >= config_.step_size,
                "rewire radius should cover the step size");
  ROBOADS_CHECK(config_.goal_bias >= 0.0 && config_.goal_bias < 1.0,
                "goal bias must lie in [0, 1)");
}

// The tree is the one a plain RRT* builds with ascending linear scans over
// all nodes; the grid and the distance bounds only skip work whose outcome
// is already known. Every skip is argued where it is taken.
std::optional<PlannedPath> RrtStar::plan(const Vec2& start, const Vec2& goal,
                                         Rng& rng) const {
  const double r = config_.robot_radius;
  const double radius = config_.rewire_radius;
  ROBOADS_CHECK(world_.free(start, r), "start pose is in collision");
  ROBOADS_CHECK(world_.free(goal, r), "goal pose is in collision");

  std::vector<Node> nodes;
  nodes.push_back({start, 0, 0.0});
  NodeGrid grid(world_.width(), world_.height(), radius);
  grid.insert(start, 0);
  // A node within `radius` by hypot has d² <= pad² despite the rounding of
  // either, so no neighbour is filtered out before its exact test.
  const double pad = radius * (1.0 + 1e-6);
  std::vector<NearNode> near;
  std::optional<std::size_t> best_goal_node;
  double best_goal_cost = kInf;

  for (std::size_t it = 0; it < config_.max_iterations; ++it) {
    // Sample (goal-biased).
    const Vec2 sample = rng.uniform() < config_.goal_bias
                            ? goal
                            : Vec2{rng.uniform(0.0, world_.width()),
                                   rng.uniform(0.0, world_.height())};

    // Nearest node, lowest index among equals.
    const auto [nearest, nearest_d2] = grid.nearest(sample);

    // Steer toward the sample by at most step_size.
    const Vec2 from = nodes[nearest].position;
    const double dist = std::sqrt(nearest_d2);
    if (dist < 1e-9) continue;
    const Vec2 to = dist <= config_.step_size
                        ? sample
                        : from + (sample - from) * (config_.step_size / dist);
    if (!world_.segment_free(from, to, r)) continue;

    // Neighbourhood: nodes i with geom::distance(p_i, to) <= radius.
    near.clear();
    grid.gather(to, pad, near);

    // Choose the cheapest collision-free parent within the neighbourhood.
    // An ascending scan that lowers `cost` on a strict `<` ends at the
    // minimum of (c_i, i) over collision-free neighbours with c_i below the
    // cost via the nearest node (segment_free has no side effects, so which
    // candidates it is asked about does not matter). `beats` compares a
    // candidate's (c, i) with the best so far, so any visiting order finds
    // the same minimum. Since d_i >= lb_i and floating-point
    // addition is monotone, c_i >= cost_i + lb_i: a candidate that fails
    // with lb_i fails with d_i, and its hypot is skipped.
    std::size_t parent = nearest;
    double cost = nodes[nearest].cost + geom::distance(from, to);
    bool improved = false;
    const auto beats = [&](double c, std::size_t i) {
      return c < cost || (improved && c == cost && i < parent);
    };
    for (NearNode& n : near) {
      const double cost_i = nodes[n.index].cost;
      if (!beats(cost_i + n.lb, n.index)) continue;
      n.d = geom::distance(n.position, to);
      if (n.d > radius) continue;
      const double c = cost_i + n.d;
      if (beats(c, n.index) && world_.segment_free(n.position, to, r)) {
        cost = c;
        parent = n.index;
        improved = true;
      }
    }

    const std::size_t new_index = nodes.size();
    nodes.push_back({to, parent, cost});
    grid.insert(to, new_index);

    // Rewire the neighbourhood through the new node when cheaper. Each
    // update writes only nodes[i] and reads the fixed new-node `cost`, so
    // the visiting order does not matter. A candidate with
    // (cost + lb_i) + 1e-12 >= nodes[i].cost fails the exact test too
    // (monotone addition again). The d_i from the parent pass is reused:
    // hypot is sign-symmetric, so distance(p_i, to) and distance(to, p_i)
    // have the same bits.
    for (NearNode& n : near) {
      Node& node = nodes[n.index];
      if ((cost + n.lb) + 1e-12 >= node.cost) continue;
      if (n.d < 0.0) n.d = geom::distance(to, n.position);
      if (n.d > radius) continue;
      const double through = cost + n.d;
      if (through + 1e-12 < node.cost &&
          world_.segment_free(to, n.position, r)) {
        node.parent = new_index;
        node.cost = through;
      }
    }

    // Track the best node able to reach the goal directly.
    const double to_goal = geom::distance(to, goal);
    if (to_goal <= config_.goal_radius &&
        world_.segment_free(to, goal, r)) {
      const double total = cost + to_goal;
      if (total < best_goal_cost) {
        best_goal_cost = total;
        best_goal_node = new_index;
      }
    }
  }

  if (!best_goal_node) return std::nullopt;

  // Recover the waypoint chain.
  std::vector<Vec2> reversed;
  reversed.push_back(goal);
  for (std::size_t i = *best_goal_node; i != 0; i = nodes[i].parent) {
    reversed.push_back(nodes[i].position);
  }
  reversed.push_back(start);
  std::reverse(reversed.begin(), reversed.end());

  PlannedPath path;
  path.waypoints = std::move(reversed);
  path.cost = best_goal_cost;
  return path;
}

PlannedPath RrtStar::smooth(const PlannedPath& path, Rng& rng,
                            std::size_t attempts) const {
  if (path.waypoints.size() <= 2) return path;
  std::vector<Vec2> pts = path.waypoints;
  for (std::size_t it = 0; it < attempts && pts.size() > 2; ++it) {
    const std::size_t i = rng.index(pts.size() - 2);
    const std::size_t j =
        i + 2 + rng.index(pts.size() - i - 2);  // j >= i + 2
    if (world_.segment_free(pts[i], pts[j], config_.robot_radius)) {
      pts.erase(pts.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                pts.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }
  PlannedPath out;
  out.waypoints = std::move(pts);
  out.cost = out.length();
  return out;
}

}  // namespace roboads::planning
