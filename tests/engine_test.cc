// Multi-mode engine + mode selector behavior (Algorithm 1, lines 4-9).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dynamics/diff_drive.h"
#include "eval/khepera.h"
#include "eval/mission.h"
#include "random/rng.h"
#include "sensors/standard_sensors.h"

namespace roboads::core {
namespace {

using dyn::DiffDrive;
using sensors::SensorSuite;

struct EngineRig {
  DiffDrive model{{.axle_length = 0.089, .dt = 0.1}};
  SensorSuite suite{{
      sensors::make_wheel_odometry(3, 0.01, 0.02),
      sensors::make_ips(3, 0.005, 0.01),
      sensors::make_lidar_nav(3, 2.0, 0.03, 0.03),
  }};
  Matrix q = Matrix::diagonal(Vector{2.5e-7, 2.5e-7, 1e-6});
  Rng rng{777};

  MultiModeEngine make_engine(const Vector& x0) {
    return MultiModeEngine(model, suite, one_reference_per_sensor(suite), q,
                           x0, Matrix::identity(3) * 1e-4);
  }

  Vector simulate_step(Vector& x_true, const Vector& u,
                       const Vector& d_sens) {
    GaussianSampler proc(q);
    x_true = model.step(x_true, u) + proc.sample(rng);
    Vector z = suite.measure(suite.all(), x_true) + d_sens;
    for (std::size_t i = 0; i < suite.count(); ++i) {
      GaussianSampler meas(suite.sensor(i).noise_covariance());
      const Vector noise = meas.sample(rng);
      for (std::size_t j = 0; j < noise.size(); ++j)
        z[suite.offset(i) + j] += noise[j];
    }
    return z;
  }
};

TEST(ModeSet, OneReferencePerSensor) {
  EngineRig rig;
  const std::vector<Mode> modes = one_reference_per_sensor(rig.suite);
  ASSERT_EQ(modes.size(), 3u);
  EXPECT_EQ(modes[0].label, "ref:wheel_encoder");
  EXPECT_EQ(modes[0].reference, (std::vector<std::size_t>{0}));
  EXPECT_EQ(modes[0].testing, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(modes[2].reference, (std::vector<std::size_t>{2}));
  validate_modes(modes, rig.suite);
}

TEST(ModeSet, CompleteSetHasTwoToPMinusOne) {
  EngineRig rig;
  const std::vector<Mode> modes = complete_mode_set(rig.suite);
  EXPECT_EQ(modes.size(), 7u);  // 2^3 − 1
  validate_modes(modes, rig.suite);
  // Exactly one mode has all sensors as reference.
  std::size_t full = 0;
  for (const Mode& m : modes)
    if (m.reference.size() == 3) ++full;
  EXPECT_EQ(full, 1u);
}

TEST(ModeSet, ValidationCatchesBadModes) {
  EngineRig rig;
  EXPECT_THROW(validate_modes({}, rig.suite), CheckError);
  EXPECT_THROW(validate_modes({Mode{"m", {}, {0, 1, 2}}, }, rig.suite),
               CheckError);
  EXPECT_THROW(validate_modes({Mode{"m", {0}, {1}}}, rig.suite), CheckError);
  EXPECT_THROW(validate_modes({Mode{"m", {0, 0}, {1, 2}}}, rig.suite),
               CheckError);
  EXPECT_THROW(validate_modes({Mode{"m", {1, 0}, {2}}}, rig.suite),
               CheckError);
  EXPECT_THROW(validate_modes({Mode{"m", {0, 5}, {1, 2}}}, rig.suite),
               CheckError);
}

TEST(Engine, WeightsStayNormalizedAndFloored) {
  EngineRig rig;
  Vector x_true{0.5, 0.5, 0.0};
  MultiModeEngine engine = rig.make_engine(x_true);

  for (std::size_t k = 0; k < 50; ++k) {
    const Vector u{0.05, 0.05};
    const Vector z = rig.simulate_step(x_true, u, Vector(10));
    const EngineResult r = engine.step(u, z);
    double sum = 0.0;
    for (double w : r.mode_weights) {
      EXPECT_GT(w, 0.0);
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Engine, CleanRunKeepsAllModesAlive) {
  EngineRig rig;
  Vector x_true{0.5, 0.5, 0.0};
  MultiModeEngine engine = rig.make_engine(x_true);

  EngineResult last;
  for (std::size_t k = 0; k < 100; ++k) {
    const Vector u{0.05, 0.055};
    last = engine.step(u, rig.simulate_step(x_true, u, Vector(10)));
  }
  // The likelihood recursion concentrates weight on the sharpest-likelihood
  // clean mode, but the ε floor (Algorithm 1 line 6) must keep every
  // hypothesis recoverable — no weight may fall below (half) the floor.
  for (double w : last.mode_weights) EXPECT_GT(w, 5e-10);
  // And the winning hypothesis is a clean one by construction here, so its
  // state estimate tracks truth.
  EXPECT_NEAR(engine.state()[0], x_true[0], 0.05);
  EXPECT_NEAR(engine.state()[1], x_true[1], 0.05);
}

TEST(Engine, SelectsModeWhoseReferenceIsClean) {
  EngineRig rig;
  Vector x_true{0.5, 0.5, 0.0};
  MultiModeEngine engine = rig.make_engine(x_true);

  // Corrupt IPS (suite index 1) *and* wheel odometry (index 0): only the
  // LiDAR-reference mode (index 2) trusts exclusively clean data. This is
  // the paper's majority-corrupted case (§V-C scenarios #9-#11): detection
  // without majority voting.
  Vector d_sens(10);
  d_sens[0] = 0.15;  // odometry x
  d_sens[3] = -0.2;  // ips x

  std::size_t selected = 0;
  for (std::size_t k = 0; k < 60; ++k) {
    const Vector u{0.05, 0.05};
    const EngineResult r =
        engine.step(u, rig.simulate_step(x_true, u, d_sens));
    selected = r.selected_mode;
  }
  EXPECT_EQ(selected, 2u);  // ref:lidar
}

TEST(Engine, RecoversAfterAttackStops) {
  EngineRig rig;
  Vector x_true{0.5, 0.5, 0.0};
  MultiModeEngine engine = rig.make_engine(x_true);

  Vector d_sens(10);
  d_sens[3] = 0.2;  // spoof IPS
  for (std::size_t k = 0; k < 40; ++k) {
    const Vector u{0.05, 0.05};
    engine.step(u, rig.simulate_step(x_true, u, d_sens));
  }
  // While the attack runs, the engine must not trust the spoofed IPS.
  {
    const Vector u{0.05, 0.05};
    const EngineResult during =
        engine.step(u, rig.simulate_step(x_true, u, d_sens));
    EXPECT_NE(during.selected_mode, 1u);
  }

  // Attack ends; thanks to the ε floor the IPS-reference hypothesis is
  // still recoverable and the engine tracks cleanly again.
  EngineResult last;
  for (std::size_t k = 0; k < 60; ++k) {
    const Vector u{0.05, 0.05};
    last = engine.step(u, rig.simulate_step(x_true, u, Vector(10)));
  }
  EXPECT_NEAR(engine.state()[0], x_true[0], 0.05);
  EXPECT_NEAR(engine.state()[1], x_true[1], 0.05);
  for (double w : last.mode_weights) EXPECT_GT(w, 5e-10);
}

TEST(Engine, ResetRestoresUniformWeights) {
  EngineRig rig;
  Vector x_true{0.5, 0.5, 0.0};
  MultiModeEngine engine = rig.make_engine(x_true);
  Vector d_sens(10);
  d_sens[3] = 0.2;
  for (std::size_t k = 0; k < 20; ++k) {
    const Vector u{0.05, 0.05};
    engine.step(u, rig.simulate_step(x_true, u, d_sens));
  }
  engine.reset(x_true, Matrix::identity(3) * 1e-4);
  for (double w : engine.weights()) EXPECT_NEAR(w, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(engine.state(), x_true);
}

TEST(Engine, RejectsBadConfig) {
  EngineRig rig;
  EngineConfig cfg;
  cfg.likelihood_floor = 0.5;  // >= 1/M for M=3
  EXPECT_THROW(MultiModeEngine(rig.model, rig.suite,
                               one_reference_per_sensor(rig.suite), rig.q,
                               Vector(3), Matrix::identity(3), cfg),
               CheckError);
}

// Bit-level equality: memcmp on the raw doubles, so even a -0.0 vs +0.0 or
// NaN-payload difference — invisible to operator== — fails the comparison.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!same_bits(a(i, j), b(i, j))) return false;
    }
  }
  return true;
}

struct StepInput {
  Vector u;
  Vector z;
};

// A 200-step attacked mission recorded once: IPS bias from k=60, an
// additional wheel-odometry bias from k=140 — the mode selection changes
// mid-run, so the trace exercises selector switches, not just steady state.
std::vector<StepInput> attacked_mission(EngineRig& rig,
                                        std::size_t steps = 200) {
  rig.rng = Rng(4242);
  Vector x_true{0.5, 0.5, 0.2};
  std::vector<StepInput> trace;
  trace.reserve(steps);
  for (std::size_t k = 1; k <= steps; ++k) {
    const Vector u{0.05, 0.055};
    Vector d_sens(10);
    if (k >= 60) d_sens[3] = 0.2;    // IPS x spoof
    if (k >= 140) d_sens[0] = 0.15;  // wheel-odometry x bomb
    trace.push_back({u, rig.simulate_step(x_true, u, d_sens)});
  }
  return trace;
}

// Runs the full trace through a fresh engine and returns every step's
// result. `mask_mode` selects how each step is issued: 0 = the plain
// 2-argument step, 1 = masked step with an empty mask, 2 = masked step with
// an all-true mask — all three are contractually the same code path and
// must be bit-identical.
std::vector<EngineResult> run_trace(EngineRig& rig,
                                    const std::vector<Mode>& modes,
                                    const std::vector<StepInput>& trace,
                                    int mask_mode = 0,
                                    bool health_enabled = true) {
  EngineConfig cfg;
  cfg.health.enabled = health_enabled;
  MultiModeEngine engine(rig.model, rig.suite, modes, rig.q,
                         Vector{0.5, 0.5, 0.2}, Matrix::identity(3) * 1e-4,
                         cfg);
  std::vector<EngineResult> results;
  results.reserve(trace.size());
  for (const StepInput& in : trace) {
    switch (mask_mode) {
      case 1:
        results.push_back(engine.step(in.u, in.z, SensorMask{}));
        break;
      case 2:
        results.push_back(
            engine.step(in.u, in.z, SensorMask(rig.suite.count(), true)));
        break;
      default:
        results.push_back(engine.step(in.u, in.z));
    }
  }
  return results;
}

void expect_identical(const std::vector<EngineResult>& a,
                      const std::vector<EngineResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE("step " + std::to_string(k + 1));
    EXPECT_EQ(a[k].selected_mode, b[k].selected_mode);
    EXPECT_TRUE(same_bits(Vector(a[k].mode_weights),
                          Vector(b[k].mode_weights)));
    ASSERT_EQ(a[k].per_mode.size(), b[k].per_mode.size());
    for (std::size_t m = 0; m < a[k].per_mode.size(); ++m) {
      SCOPED_TRACE("mode " + std::to_string(m));
      const NuiseResult& ra = a[k].per_mode[m];
      const NuiseResult& rb = b[k].per_mode[m];
      EXPECT_TRUE(same_bits(ra.state, rb.state));
      EXPECT_TRUE(same_bits(ra.state_cov, rb.state_cov));
      EXPECT_TRUE(same_bits(ra.actuator_anomaly, rb.actuator_anomaly));
      EXPECT_TRUE(same_bits(ra.sensor_anomaly, rb.sensor_anomaly));
      EXPECT_TRUE(same_bits(ra.innovation, rb.innovation));
      EXPECT_TRUE(same_bits(ra.log_likelihood, rb.log_likelihood));
    }
  }
}

// The fault-tolerant runtime's no-fault contract: with every sensor
// available (however that is spelled) and health supervision enabled —
// the default — outputs are bit-identical to the plain unsupervised run.
// Supervision is pure reads on healthy results; the masked entry points
// route trivial masks to the exact legacy path. Checked on the default
// bank and on the §VI complete mode set (2³ − 1 = 7 modes).
TEST(Engine, MaskedAllAvailableAndSupervisionAreBitIdentical) {
  EngineRig rig;
  const std::vector<StepInput> trace = attacked_mission(rig);
  for (const std::vector<Mode>& modes :
       {one_reference_per_sensor(rig.suite), complete_mode_set(rig.suite)}) {
    SCOPED_TRACE("modes = " + std::to_string(modes.size()));
    const std::vector<EngineResult> plain_unsupervised =
        run_trace(rig, modes, trace, /*mask_mode=*/0,
                  /*health_enabled=*/false);
    for (int mask_mode : {0, 1, 2}) {
      SCOPED_TRACE("mask_mode = " + std::to_string(mask_mode));
      const std::vector<EngineResult> supervised =
          run_trace(rig, modes, trace, mask_mode, /*health_enabled=*/true);
      expect_identical(plain_unsupervised, supervised);
      // And the supervised run reports every mode healthy throughout.
      for (const EngineResult& r : supervised) {
        EXPECT_EQ(r.quarantined_modes, 0u);
        for (ModeHealthState s : r.mode_health) {
          EXPECT_EQ(s, ModeHealthState::kHealthy);
        }
      }
    }
  }
}

// The selector must end the attacked trace distrusting both corrupted
// sensors — guards against a harness that would pass trivially on a trace
// the engine never reacts to.
TEST(Engine, TraceActuallyExercisesModeSwitches) {
  EngineRig rig;
  const std::vector<Mode> modes = one_reference_per_sensor(rig.suite);
  const std::vector<StepInput> trace = attacked_mission(rig);
  const std::vector<EngineResult> results = run_trace(rig, modes, trace);
  EXPECT_EQ(results.front().selected_mode, results[40].selected_mode);
  EXPECT_EQ(results.back().selected_mode, 2u);  // ref:lidar — only clean one
}

bool same_result_bits(const NuiseResult& a, const NuiseResult& b) {
  return same_bits(a.state, b.state) && same_bits(a.state_cov, b.state_cov) &&
         same_bits(a.actuator_anomaly, b.actuator_anomaly) &&
         same_bits(a.actuator_anomaly_cov, b.actuator_anomaly_cov) &&
         same_bits(a.sensor_anomaly, b.sensor_anomaly) &&
         same_bits(a.sensor_anomaly_cov, b.sensor_anomaly_cov) &&
         same_bits(a.innovation, b.innovation) &&
         same_bits(a.innovation_cov, b.innovation_cov) &&
         same_bits(a.log_likelihood, b.log_likelihood) &&
         a.actuator_identifiable == b.actuator_identifiable &&
         a.correction_applied == b.correction_applied &&
         a.likelihood_informative == b.likelihood_informative &&
         a.degraded == b.degraded && a.active_testing == b.active_testing;
}

// The engine computes the mode-independent NUISE prefix once per step and
// hands it to every mode; the public per-mode Nuise::step computes it
// itself. Over a transport-faulted scenario-8 mission (IPS frames dropped,
// so full, degraded-subset and prediction-only steps all occur), per-mode
// Nuise::step followed by supervise_result must equal the engine's
// per_mode bit for bit — on the default bank and on the complete mode set,
// whose two-sensor references shrink to a subset when the IPS drops out.
TEST(Engine, SharedPredictionMatchesPublicNuiseStepBitForBit) {
  const eval::KheperaPlatform platform;
  eval::MissionConfig mission_cfg;
  mission_cfg.iterations = 120;
  mission_cfg.seed = 88;
  mission_cfg.transport_faults =
      sim::TransportFaultConfig::single({"ips", 0.35}, 4242);
  const eval::MissionResult mission =
      eval::run_mission(platform, platform.table2_scenario(8), mission_cfg);
  ASSERT_GT(mission.frames_dropped, 0u);

  const SensorSuite& suite = platform.suite();
  const EngineConfig cfg = platform.detector_config().engine;
  std::size_t full = 0, degraded_subset = 0, prediction_only = 0;
  for (const std::vector<Mode>& modes :
       {one_reference_per_sensor(suite), complete_mode_set(suite)}) {
    SCOPED_TRACE("modes = " + std::to_string(modes.size()));
    MultiModeEngine engine(
        platform.model(), suite, modes, platform.process_cov(),
        platform.initial_state(),
        Matrix::identity(platform.model().state_dim()) * 1e-4, cfg);
    std::vector<Nuise> nuises;
    for (const Mode& mode : modes) {
      nuises.emplace_back(platform.model(), suite, mode,
                          platform.process_cov());
    }
    for (const eval::IterationRecord& rec : mission.records) {
      SCOPED_TRACE("k = " + std::to_string(rec.k));
      std::vector<NuiseResult> twin;
      for (std::size_t m = 0; m < nuises.size(); ++m) {
        twin.push_back(nuises[m].step(engine.state(), engine.state_cov(),
                                      rec.u_planned, rec.z,
                                      rec.sensor_available));
        supervise_result(twin.back(), modes[m], suite, cfg.health);
      }
      const EngineResult er =
          engine.step(rec.u_planned, rec.z, rec.sensor_available);
      ASSERT_EQ(er.per_mode.size(), twin.size());
      for (std::size_t m = 0; m < twin.size(); ++m) {
        ASSERT_TRUE(same_result_bits(twin[m], er.per_mode[m]))
            << "mode " << modes[m].label;
        const NuiseResult& r = er.per_mode[m];
        if (!r.correction_applied) {
          ++prediction_only;
        } else if (r.degraded) {
          ++degraded_subset;
        } else {
          ++full;
        }
      }
    }
  }
  EXPECT_GT(full, 0u);
  EXPECT_GT(degraded_subset, 0u);
  EXPECT_GT(prediction_only, 0u);
}

}  // namespace
}  // namespace roboads::core
