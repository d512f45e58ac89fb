// detector-replay: the recorded frames of every corpus mission replayed into
// a fresh core::RoboAds, with each platform's default config and modes.
#include <optional>

#include "alloc_count.h"
#include "core/health.h"
#include "fleet/replay.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

core::RoboAdsConfig detector_config(const MissionSpec& spec) {
  return spec.config.detector_override.value_or(
      spec.platform->detector_config());
}

Matrix initial_cov(const eval::Platform& platform) {
  // eval::run_mission's p0.
  return Matrix::identity(platform.model().state_dim()) * 1e-4;
}

core::RoboAds make_detector(const MissionSpec& spec) {
  const eval::Platform& p = *spec.platform;
  return core::RoboAds(p.model(), p.suite(), p.process_cov(),
                       p.initial_state(), initial_cov(p),
                       detector_config(spec), p.detector_modes());
}

bool masked(const core::SensorMask& mask) {
  for (bool a : mask) {
    if (!a) return true;
  }
  return false;
}

std::string compare_nuise(const core::NuiseResult& a,
                          const core::NuiseResult& b) {
  if (!(a.state == b.state) || !(a.state_cov == b.state_cov)) return "state";
  if (!(a.actuator_anomaly == b.actuator_anomaly) ||
      !(a.actuator_anomaly_cov == b.actuator_anomaly_cov)) {
    return "actuator anomaly";
  }
  if (!(a.sensor_anomaly == b.sensor_anomaly) ||
      !(a.sensor_anomaly_cov == b.sensor_anomaly_cov)) {
    return "sensor anomaly";
  }
  if (!(a.innovation == b.innovation) ||
      !(a.innovation_cov == b.innovation_cov)) {
    return "innovation";
  }
  if (a.log_likelihood != b.log_likelihood) return "likelihood";
  if (a.degraded != b.degraded || a.active_testing != b.active_testing ||
      a.correction_applied != b.correction_applied ||
      a.likelihood_informative != b.likelihood_informative ||
      a.actuator_identifiable != b.actuator_identifiable) {
    return "flags";
  }
  return {};
}

std::string compare_decision(const core::Decision& a, const core::Decision& b) {
  if (a.sensor_statistic != b.sensor_statistic ||
      a.sensor_alarm != b.sensor_alarm ||
      a.sensor_test_positive != b.sensor_test_positive) {
    return "sensor decision";
  }
  if (a.actuator_statistic != b.actuator_statistic ||
      a.actuator_alarm != b.actuator_alarm ||
      a.actuator_test_positive != b.actuator_test_positive) {
    return "actuator decision";
  }
  if (a.misbehaving_sensors != b.misbehaving_sensors) return "attribution";
  if (!(a.actuator_anomaly == b.actuator_anomaly)) return "actuator anomaly";
  return {};
}

// RoboAds::step's containment-floor stand-in (core/roboads.cc), so the twin
// decision sees exactly what the façade hands its DecisionMaker.
core::NuiseResult fallback_result(const core::MultiModeEngine& engine,
                                  std::size_t input_dim) {
  core::NuiseResult r;
  r.state = engine.state();
  r.state_cov = engine.state_cov();
  r.actuator_anomaly = Vector(input_dim);
  r.actuator_anomaly_cov = Matrix::identity(input_dim);
  r.correction_applied = false;
  r.likelihood_informative = false;
  r.actuator_identifiable = false;
  r.degraded = true;
  return r;
}

}  // namespace

Outcome run_detector_replay(const RunContext& ctx) {
  Outcome out;
  std::vector<double> step_ns;
  step_ns.reserve(static_cast<std::size_t>(ctx.seconds * 60000.0));
  // Throughput from the median pass: host interference comes in bursts, and
  // a pass (one replay of the whole corpus) is long enough to average the
  // per-step jitter but short enough that a run holds dozens of them.
  std::vector<double> pass_steps_per_s;
  const std::uint64_t t_end =
      now_ns() + static_cast<std::uint64_t>(ctx.seconds * 1e9);
  do {  // whole passes over the corpus, so the platform mix is fixed
    double busy_ns = 0.0;
    std::size_t steps = 0;
    for (const Recording& m : ctx.corpus->missions) {
      core::RoboAds detector = make_detector(m.spec);
      for (const eval::IterationRecord& rec : m.result.records) {
        ++out.attempted;
        std::optional<core::DetectionReport> report;
        const std::uint64_t t0 = now_ns();
        try {
          report.emplace(
              detector.step(rec.u_planned, rec.z, rec.sensor_available));
        } catch (const std::exception& e) {
          out.fail(m.spec.name + ": step threw: " + e.what());
          break;  // the detector's state no longer tracks the recording
        }
        const std::uint64_t t1 = now_ns();
        step_ns.push_back(static_cast<double>(t1 - t0));
        busy_ns += static_cast<double>(t1 - t0);
        ++steps;
        const std::string why = fleet::compare_reports(*report, rec.report);
        if (!why.empty()) {
          out.fail(m.spec.name + " k=" + std::to_string(rec.k) + ": " + why);
        }
      }
    }
    pass_steps_per_s.push_back(static_cast<double>(steps) / (busy_ns * 1e-9));
  } while (now_ns() < t_end);
  out.throughput_per_s = median(pass_steps_per_s);
  for (double& v : step_ns) v *= 1e-6;  // ns → ms
  out.latency_ms = summarize(std::move(step_ns));
  return out;
}

Outcome trace_detector_replay(const RunContext& ctx) {
  Outcome out;
  SpanLog log;
  const std::uint32_t s_frame = log.intern("replay.frame");
  const std::uint32_t s_nuise = log.intern("core.nuise.step");
  const std::uint32_t s_nuise_degraded = log.intern("core.nuise.degraded_step");
  const std::uint32_t s_engine = log.intern("core.engine.step");
  const std::uint32_t s_decision = log.intern("core.decision.evaluate");
  const std::uint32_t s_roboads = log.intern("core.roboads.step");
  const std::uint32_t s_oracle = log.intern("oracle.compare");

  // Untraced reference pass for the overhead ratio.
  std::size_t plain_frames = 0;
  const std::uint64_t plain_start = now_ns();
  for (const Recording& m : ctx.corpus->missions) {
    core::RoboAds detector = make_detector(m.spec);
    for (const eval::IterationRecord& rec : m.result.records) {
      detector.step(rec.u_planned, rec.z, rec.sensor_available);
      ++plain_frames;
    }
  }
  const double plain_ns_per_frame =
      static_cast<double>(now_ns() - plain_start) /
      static_cast<double>(plain_frames);

  struct Sums {
    double roboads_ns[2] = {0, 0};   // khepera, tamiya
    std::size_t roboads_n[2] = {0, 0};
    double nuise_ns = 0, nuise_degraded_ns = 0;
    std::size_t nuise_n = 0, nuise_degraded_n = 0;
    double engine_ns = 0, decision_ns = 0, roboads_all_ns = 0;
    std::size_t frames = 0, masked_frames = 0;
    AllocTally roboads_alloc, engine_alloc, nuise_alloc;
  } sums;

  std::vector<std::uint64_t> pass_allocs;  // RoboAds::step allocations/pass
  std::uint64_t frame_id = 0;
  const std::uint64_t t_start = now_ns();
  const std::uint64_t t_end =
      t_start + static_cast<std::uint64_t>(ctx.seconds * 1e9);
  do {
    std::uint64_t pass_alloc = 0;
    for (const Recording& m : ctx.corpus->missions) {
      const eval::Platform& p = *m.spec.platform;
      const int plat = p.name() == "khepera" ? 0 : 1;
      const core::RoboAdsConfig cfg = detector_config(m.spec);
      core::RoboAds detector = make_detector(m.spec);
      // Twins built exactly as RoboAds builds its own engine and decision
      // maker, stepped in lockstep and checked against its report.
      core::MultiModeEngine engine(p.model(), p.suite(), detector.modes(),
                                   p.process_cov(), p.initial_state(),
                                   initial_cov(p), cfg.engine);
      core::DecisionMaker decision(p.suite(), cfg.decision);
      std::vector<core::Nuise> nuises;
      for (const core::Mode& mode : detector.modes()) {
        nuises.emplace_back(p.model(), p.suite(), mode, p.process_cov());
      }
      std::vector<core::NuiseResult> raw(nuises.size());

      for (const eval::IterationRecord& rec : m.result.records) {
        ++out.attempted;
        ++sums.frames;
        const bool is_masked = masked(rec.sensor_available);
        if (is_masked) ++sums.masked_frames;
        const std::int64_t root = log.begin(s_frame, frame_id);

        // NUISE per mode, from the engine's shared estimate before the step.
        const Vector x_prev = engine.state();
        const Matrix p_prev = engine.state_cov();
        for (std::size_t i = 0; i < nuises.size(); ++i) {
          const AllocScope a;
          const std::uint64_t t0 = now_ns();
          raw[i] = !is_masked
                       ? nuises[i].step(x_prev, p_prev, rec.u_planned, rec.z)
                       : nuises[i].step(x_prev, p_prev, rec.u_planned, rec.z,
                                        rec.sensor_available);
          const std::uint64_t t1 = now_ns();
          const AllocTally d = a.delta();
          sums.nuise_alloc.count += d.count;
          const bool degraded = raw[i].degraded;
          log.add({degraded ? s_nuise_degraded : s_nuise, frame_id, root, t0,
                   t1});
          (degraded ? sums.nuise_degraded_ns : sums.nuise_ns) +=
              static_cast<double>(t1 - t0);
          ++(degraded ? sums.nuise_degraded_n : sums.nuise_n);
        }

        std::int64_t sp = log.begin(s_engine, frame_id, root);
        const AllocScope ea;
        const core::EngineResult er =
            engine.step(rec.u_planned, rec.z, rec.sensor_available);
        const AllocTally ed = ea.delta();
        log.end(sp);
        sums.engine_alloc.count += ed.count;
        sums.engine_ns += static_cast<double>(log.spans()[sp].duration());

        const core::NuiseResult fallback =
            er.fallback_previous_estimate
                ? fallback_result(engine, rec.u_planned.size())
                : core::NuiseResult{};
        const core::NuiseResult& selected =
            er.fallback_previous_estimate ? fallback : er.selected();
        sp = log.begin(s_decision, frame_id, root);
        const core::Decision dec =
            decision.evaluate(engine.modes()[er.selected_mode], selected);
        log.end(sp);
        sums.decision_ns += static_cast<double>(log.spans()[sp].duration());

        sp = log.begin(s_roboads, frame_id, root);
        const AllocScope ra;
        const core::DetectionReport report =
            detector.step(rec.u_planned, rec.z, rec.sensor_available);
        const AllocTally rd = ra.delta();
        log.end(sp);
        const double roboads_ns =
            static_cast<double>(log.spans()[sp].duration());
        sums.roboads_ns[plat] += roboads_ns;
        ++sums.roboads_n[plat];
        sums.roboads_all_ns += roboads_ns;
        sums.roboads_alloc.count += rd.count;
        sums.roboads_alloc.bytes += rd.bytes;
        pass_alloc += rd.count;

        sp = log.begin(s_oracle, frame_id, root);
        std::string why = fleet::compare_reports(report, rec.report);
        for (std::size_t i = 0; why.empty() && i < raw.size(); ++i) {
          if (cfg.engine.health.enabled) {
            core::supervise_result(raw[i], engine.modes()[i], p.suite(),
                                   cfg.engine.health);
          }
          const std::string d = compare_nuise(raw[i], er.per_mode[i]);
          if (!d.empty()) {
            why = "twin NUISE mode " + std::to_string(i) + ": " + d;
          }
        }
        if (why.empty() && (er.selected_mode != report.selected_mode ||
                            !(engine.state() == report.state_estimate))) {
          why = "twin engine differs from the report";
        }
        if (why.empty()) {
          const std::string d = compare_decision(dec, report.decision);
          if (!d.empty()) why = "twin decision: " + d;
        }
        log.end(sp);
        if (!why.empty()) {
          out.fail(m.spec.name + " k=" + std::to_string(rec.k) + ": " + why);
        }
        log.end(root);
        ++frame_id;
      }
    }
    pass_allocs.push_back(pass_alloc);
  } while (now_ns() < t_end);
  const std::uint64_t t_stop = now_ns();

  // Allocation counts are exact: every pass must repeat the first.
  for (std::size_t i = 1; i < pass_allocs.size(); ++i) {
    if (pass_allocs[i] != pass_allocs[0]) {
      out.fail("RoboAds::step allocation count differs between passes: " +
               std::to_string(pass_allocs[0]) + " vs " +
               std::to_string(pass_allocs[i]));
    }
  }
  if (pass_allocs.size() < 2) {
    out.fail("detector trace slice too short to repeat allocation counts");
  }

  const LayerTable table = log.table(t_start, t_stop);
  out.notes = render_table("detector-replay", table);
  if (!ctx.trace_path.empty()) log.write_jsonl(ctx.trace_path);

  std::vector<double> step_ms;
  step_ms.reserve(sums.frames);
  for (const Span& sp : log.spans()) {
    if (sp.name == s_roboads) {
      step_ms.push_back(static_cast<double>(sp.duration()) * 1e-6);
    }
  }
  const Summary step = summarize(std::move(step_ms));
  const double frames = static_cast<double>(sums.frames);
  const auto mean = [](double s, std::size_t n) {
    return n > 0 ? s / static_cast<double>(n) : 0.0;
  };
  out.layer("core.roboads.step_ns.khepera",
            mean(sums.roboads_ns[0], sums.roboads_n[0]), "ns");
  out.layer("core.roboads.step_ns.tamiya",
            mean(sums.roboads_ns[1], sums.roboads_n[1]), "ns");
  out.layer("detector.step_ms.p50", step.p50, "ms");
  out.layer("detector.step_ms.p99", step.p99, "ms");
  out.layer("core.nuise.step_ns", mean(sums.nuise_ns, sums.nuise_n), "ns");
  out.layer("core.nuise.degraded_step_ns",
            mean(sums.nuise_degraded_ns, sums.nuise_degraded_n), "ns");
  out.layer("core.nuise.share",
            (sums.nuise_ns + sums.nuise_degraded_ns) / sums.roboads_all_ns,
            "ratio");
  out.layer("core.engine.reduction_ns",
            (sums.engine_ns - sums.nuise_ns - sums.nuise_degraded_ns) / frames,
            "ns");
  out.layer("core.decision.evaluate_ns", sums.decision_ns / frames, "ns");
  out.layer("core.report_ns",
            (sums.roboads_all_ns - sums.engine_ns - sums.decision_ns) / frames,
            "ns");
  out.layer("core.roboads.allocs_per_step",
            static_cast<double>(sums.roboads_alloc.count) / frames, "count");
  out.layer("core.roboads.alloc_bytes_per_step",
            static_cast<double>(sums.roboads_alloc.bytes) / frames, "B");
  out.layer("core.engine.allocs_per_step",
            static_cast<double>(sums.engine_alloc.count) / frames, "count");
  out.layer("core.nuise.allocs_per_step",
            static_cast<double>(sums.nuise_alloc.count) /
                static_cast<double>(sums.nuise_n + sums.nuise_degraded_n),
            "count");
  out.layer("core.masked_step_ratio",
            static_cast<double>(sums.masked_frames) / frames, "ratio");
  out.layer("trace_overhead_ratio.detector-replay",
            (table.wall_ns / frames) / plain_ns_per_frame, "ratio");
  return out;
}

}  // namespace perfbench
