// Steady-state allocation audit of the NUISE hot path.
//
// The detector's per-iteration work — one Nuise::step per mode — must not
// touch the heap once the estimator is constructed: all vectors/matrices on
// the Khepera-sized path fit the inline storage of matrix.h and all
// mode-invariant structure lives in the per-instance workspace (see
// docs/PERFORMANCE.md). This test replaces the global allocation functions
// with counting versions and asserts the count stays zero across steady-state
// steps, so any future change that sneaks an allocation into the hot path
// (a temporary std::vector, an eager error-message string, a fallback that
// spills past the inline capacity) fails loudly here instead of showing up
// only as a benchmark regression.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/engine.h"
#include "core/nuise.h"
#include "dynamics/diff_drive.h"
#include "sensors/standard_sensors.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace roboads::core {
namespace {

struct Rig {
  dyn::DiffDrive model{{.axle_length = 0.089, .dt = 0.1}};
  sensors::SensorSuite suite{{
      sensors::make_wheel_odometry(3, 0.01, 0.02),
      sensors::make_ips(3, 0.005, 0.01),
      sensors::make_lidar_nav(3, 2.0, 0.03, 0.03),
  }};
  Matrix q = Matrix::diagonal(Vector{2.5e-7, 2.5e-7, 1e-6});
};

class AllocationGuard {
 public:
  AllocationGuard() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() { g_counting.store(false, std::memory_order_relaxed); }
  std::size_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

TEST(NuiseAllocation, SteadyStateStepIsAllocationFree) {
  Rig rig;
  // The paper's Khepera-style configuration: single-reference mode over the
  // three-sensor suite, 10-dimensional full reading.
  const Mode mode{"ref:ips", {1}, {0, 2}};
  const Nuise nuise(rig.model, rig.suite, mode, rig.q);

  Vector x{0.3, 0.4, 0.1};
  Matrix p = Matrix::identity(3) * 1e-4;
  const Vector u{0.05, 0.04};
  const Vector z = rig.suite.measure(rig.suite.all(), x);

  // Warm-up step outside the audit: first-call lazy init anywhere in the
  // stack (there should be none, but the audit targets steady state).
  NuiseResult r = nuise.step(x, p, u, z);
  ASSERT_TRUE(r.state.all_finite());

  AllocationGuard guard;
  for (int i = 0; i < 100; ++i) {
    r = nuise.step(r.state, r.state_cov, u, z);
  }
  const std::size_t allocs = guard.count();
  ASSERT_TRUE(r.state.all_finite());
  EXPECT_EQ(allocs, 0u)
      << "steady-state Nuise::step touched the heap " << allocs << " times";
}

TEST(NuiseAllocation, EveryModeOfTheBankIsAllocationFree) {
  Rig rig;
  const std::vector<Mode> modes = one_reference_per_sensor(rig.suite);
  for (const Mode& mode : modes) {
    const Nuise nuise(rig.model, rig.suite, mode, rig.q);
    Vector x{0.3, 0.4, 0.1};
    Matrix p = Matrix::identity(3) * 1e-4;
    const Vector u{0.05, 0.04};
    const Vector z = rig.suite.measure(rig.suite.all(), x);
    NuiseResult r = nuise.step(x, p, u, z);

    AllocationGuard guard;
    for (int i = 0; i < 20; ++i) {
      r = nuise.step(r.state, r.state_cov, u, z);
    }
    EXPECT_EQ(guard.count(), 0u) << "mode " << mode.label;
  }
}

// A steady-state, healthy MultiModeEngine::step on the default Khepera bank
// (one reference per sensor, three modes). The estimators themselves stay
// off the heap (above); the step's only allocations are the three vectors of
// the EngineResult it returns:
//   1. per_mode    — one NuiseResult slot per mode,
//   2. mode_weights — the copy of the normalized weights,
//   3. mode_health  — the per-mode health snapshot.
// Anything more — e.g. a type-erased callable built around the per-mode
// loop — fails here.
TEST(NuiseAllocation, EngineStepAllocatesOnlyItsResult) {
  Rig rig;
  const Vector x{0.3, 0.4, 0.1};
  MultiModeEngine engine(rig.model, rig.suite,
                         one_reference_per_sensor(rig.suite), rig.q, x,
                         Matrix::identity(3) * 1e-4);
  const Vector u{0.0, 0.0};
  const Vector z = rig.suite.measure(rig.suite.all(), x);
  engine.step(u, z);

  constexpr std::size_t kSteps = 50;
  std::size_t allocs = 0;
  {
    AllocationGuard guard;
    for (std::size_t i = 0; i < kSteps; ++i) engine.step(u, z);
    allocs = guard.count();
  }
  const EngineResult last = engine.step(u, z);
  ASSERT_EQ(last.quarantined_modes, 0u);
  for (ModeHealthState s : last.mode_health) {
    ASSERT_EQ(s, ModeHealthState::kHealthy);
  }
  constexpr std::size_t kAllocsPerStep = 3;
  EXPECT_EQ(allocs, kSteps * kAllocsPerStep)
      << "steady-state MultiModeEngine::step made " << allocs << " allocations";
}

}  // namespace
}  // namespace roboads::core
