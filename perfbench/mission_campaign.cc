// mission-campaign: the corpus missions through the full pipeline — RRT*
// planning, PID control, simulator, sensing (LiDAR included), detector and
// scoring — via eval::run_mission_batch.
#include <algorithm>
#include <map>

#include "eval/batch.h"
#include "eval/scoring.h"
#include "sim/faults.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

// One batch per platform (run_mission_batch takes a single platform).
struct PlatformBatch {
  const eval::Platform* platform = nullptr;
  std::vector<std::size_t> corpus_index;
};

std::vector<PlatformBatch> batches_of(const Corpus& corpus) {
  std::vector<PlatformBatch> out;
  for (std::size_t i = 0; i < corpus.missions.size(); ++i) {
    const eval::Platform* p = corpus.missions[i].spec.platform;
    auto it = std::find_if(out.begin(), out.end(), [p](const PlatformBatch& b) {
      return b.platform == p;
    });
    if (it == out.end()) {
      out.push_back({p, {}});
      it = out.end() - 1;
    }
    it->corpus_index.push_back(i);
  }
  return out;
}

}  // namespace

Outcome run_mission_campaign(const RunContext& ctx) {
  Outcome out;
  const std::vector<PlatformBatch> batches = batches_of(*ctx.corpus);
  sim::WorkflowConfig workflow;
  workflow.num_threads = ctx.threads;

  // Throughput from the median round (every platform batch once).
  std::vector<double> round_missions_per_s;
  const std::uint64_t t_end =
      now_ns() + static_cast<std::uint64_t>(ctx.seconds * 1e9);
  do {
    double busy_ns = 0.0;
    std::size_t missions = 0;
    for (const PlatformBatch& b : batches) {
      std::vector<eval::MissionJob> jobs;
      for (const std::size_t i : b.corpus_index) {
        const MissionSpec& spec = ctx.corpus->missions[i].spec;
        eval::MissionJob job;
        job.name = spec.name;
        job.config = spec.config;
        job.make_scenario = spec.scenario_factory();
        jobs.push_back(std::move(job));
      }
      const std::uint64_t t0 = now_ns();
      const std::vector<eval::MissionJobResult> results =
          eval::run_mission_batch(*b.platform, jobs, workflow);
      busy_ns += static_cast<double>(now_ns() - t0);

      // Oracle, outside the timed batch.
      for (std::size_t j = 0; j < results.size(); ++j) {
        const Recording& rec = ctx.corpus->missions[b.corpus_index[j]];
        ++out.attempted;
        ++missions;
        if (results[j].failed()) {
          out.fail(rec.spec.name + ": mission failed: " +
                   results[j].failure->what);
          continue;
        }
        const std::string why =
            compare_missions(results[j].result, rec.result);
        if (!why.empty()) {
          out.fail(rec.spec.name + ": differs from serial run_mission: " + why);
        }
      }
    }
    round_missions_per_s.push_back(static_cast<double>(missions) /
                                   (busy_ns * 1e-9));
  } while (now_ns() < t_end);
  out.throughput_per_s = median(round_missions_per_s);
  out.threads = ctx.threads;
  return out;
}

namespace {

// Serial rebuild of eval::run_mission (default mission options: no linear
// baseline, no resilient control, no recorder) from public calls, with a
// span around each layer call. Checked record-for-record against the serial
// recording, which also proves that the per-workflow sense() calls
// concatenate to exactly what SensingStack::sense_all delivered.
struct MissionTracer {
  SpanLog& log;
  std::uint32_t s_mission, s_setup, s_iteration, s_control, s_actuation,
      s_simulator, s_transport, s_detector, s_observe, s_truth, s_score;
  std::map<std::string, std::uint32_t> s_sensing;

  explicit MissionTracer(SpanLog& l)
      : log(l),
        s_mission(l.intern("mission")),
        s_setup(l.intern("planning.controller_setup")),
        s_iteration(l.intern("mission.iteration")),
        s_control(l.intern("planning.control")),
        s_actuation(l.intern("sim.actuation")),
        s_simulator(l.intern("sim.simulator.step")),
        s_transport(l.intern("sim.transport")),
        s_detector(l.intern("core.roboads.step")),
        s_observe(l.intern("planning.observe")),
        s_truth(l.intern("attacks.truth")),
        s_score(l.intern("eval.score")) {}

  std::uint32_t sensing(const std::string& workflow) {
    auto it = s_sensing.find(workflow);
    if (it == s_sensing.end()) {
      it = s_sensing.emplace(workflow, log.intern("sim.sensing." + workflow))
               .first;
    }
    return it->second;
  }

  Vector sense(sim::SensingStack& sensing_stack, std::size_t k,
               const Vector& x, Rng& rng, std::uint64_t trace,
               std::int64_t parent) {
    Vector z;
    for (const auto& w : sensing_stack.workflows()) {
      const std::int64_t sp = log.begin(sensing(w->name()), trace, parent);
      const Vector part = w->sense(k, x, rng);
      log.end(sp);
      z = z.concat(part);
    }
    return z;
  }

  eval::MissionResult run(const MissionSpec& spec, std::uint64_t trace) {
    const eval::Platform& platform = *spec.platform;
    const eval::MissionConfig& config = spec.config;
    const attacks::Scenario scenario = spec.scenario_factory()();
    const std::int64_t root = log.begin(s_mission, trace);

    Rng rng(config.seed);
    const dyn::DynamicModel& model = platform.model();
    const sensors::SensorSuite& suite = platform.suite();
    sim::SensingStack sensing_stack = platform.make_sensing(scenario);
    sim::ActuationWorkflow actuation = platform.make_actuation(scenario);
    sim::RobotSimulator simulator(model, platform.process_cov(),
                                  platform.initial_state(), &platform.world(),
                                  platform.robot_radius());
    std::int64_t sp = log.begin(s_setup, trace, root);
    std::unique_ptr<eval::Controller> controller =
        platform.make_controller(rng);
    log.end(sp);
    const core::RoboAdsConfig detector_config =
        config.detector_override.value_or(platform.detector_config());
    const Matrix p0 = Matrix::identity(model.state_dim()) * 1e-4;
    core::RoboAds detector(model, suite, platform.process_cov(),
                           platform.initial_state(), p0, detector_config,
                           platform.detector_modes());
    sim::TransportFaultModel faults(suite, config.transport_faults);
    const bool faults_active = faults.active();

    eval::MissionResult result;
    result.dt = model.dt();
    result.records.reserve(config.iterations);
    Vector z = sense(sensing_stack, 0, simulator.state(), rng, trace, root);
    core::SensorMask mask;
    if (faults_active) {
      sim::BusDelivery delivery = faults.deliver(0, z);
      z = std::move(delivery.z);
      mask.assign(delivery.available.begin(), delivery.available.end());
    }
    for (std::size_t k = 1; k <= config.iterations; ++k) {
      const std::int64_t it = log.begin(s_iteration, trace, root);
      eval::IterationRecord rec;
      rec.k = k;
      sp = log.begin(s_control, trace, it);
      rec.u_planned = controller->control(z);
      log.end(sp);
      sp = log.begin(s_actuation, trace, it);
      rec.u_executed = actuation.execute(k, rec.u_planned);
      log.end(sp);
      sp = log.begin(s_simulator, trace, it);
      simulator.step(rec.u_executed, rng);
      log.end(sp);
      rec.x_true = simulator.state();
      rec.collided = simulator.collided();
      z = sense(sensing_stack, k, simulator.state(), rng, trace, it);
      if (faults_active) {
        sp = log.begin(s_transport, trace, it);
        sim::BusDelivery delivery = faults.deliver(k, z);
        log.end(sp);
        z = std::move(delivery.z);
        mask.assign(delivery.available.begin(), delivery.available.end());
      }
      rec.z = z;
      rec.sensor_available = mask;
      sp = log.begin(s_detector, trace, it);
      rec.report = detector.step(rec.u_planned, z, mask);
      log.end(sp);
      sp = log.begin(s_observe, trace, it);
      controller->observe(rec.report);
      log.end(sp);
      sp = log.begin(s_truth, trace, it);
      rec.truth = scenario.truth_at(k, suite);
      log.end(sp);
      if (rec.truth.actuator_corrupted &&
          (rec.u_executed - rec.u_planned).norm_inf() <
              platform.actuator_significance()) {
        rec.truth.actuator_corrupted = false;
      }
      if (rec.collided) rec.truth.actuator_corrupted = true;
      result.records.push_back(std::move(rec));
      log.end(it);
      if (controller->finished()) break;
    }
    const Vector final_state = simulator.state();
    result.goal_reached =
        geom::distance({final_state[0], final_state[1]}, platform.goal()) <
        0.2;
    sp = log.begin(s_score, trace, root);
    eval::score_mission(result, platform);
    log.end(sp);
    log.end(root);
    return result;
  }
};

}  // namespace

Outcome trace_mission_campaign(const RunContext& ctx) {
  Outcome out;
  // Untraced reference: the same missions through the serial run_mission.
  std::size_t plain_iterations = 0;
  const std::uint64_t plain_start = now_ns();
  for (const Recording& m : ctx.corpus->missions) {
    const eval::MissionResult r = eval::run_mission(
        *m.spec.platform, m.spec.scenario_factory()(), m.spec.config);
    eval::score_mission(r, *m.spec.platform);
    plain_iterations += r.records.size();
  }
  const double plain_ns = static_cast<double>(now_ns() - plain_start);

  SpanLog log;
  MissionTracer tracer(log);
  std::size_t traced_iterations = 0;
  std::uint64_t trace_id = 0;
  const std::uint64_t t_start = now_ns();
  const std::uint64_t t_end =
      t_start + static_cast<std::uint64_t>(ctx.seconds * 0.5 * 1e9);
  do {
    for (const Recording& m : ctx.corpus->missions) {
      ++out.attempted;
      const eval::MissionResult r = tracer.run(m.spec, trace_id++);
      traced_iterations += r.records.size();
      const std::string why = compare_missions(r, m.result);
      if (!why.empty()) {
        out.fail(m.spec.name + ": traced loop differs from run_mission: " +
                 why);
      }
    }
  } while (now_ns() < t_end);
  const std::uint64_t t_stop = now_ns();

  const LayerTable table = log.table(t_start, t_stop);
  out.notes = render_table("mission-campaign (serial traced loop)", table);
  if (!ctx.trace_path.empty()) log.write_jsonl(ctx.trace_path);

  const auto per_call = [&](const char* name) {
    const double n = table.calls(name);
    return n > 0 ? table.self_ns(name) / n : 0.0;
  };
  const double missions = table.calls("mission");
  double mission_total = 0.0;
  double iteration_total = 0.0;
  std::vector<double> iteration_us;
  for (const Span& s : log.spans()) {
    if (s.name == tracer.s_mission) {
      mission_total += static_cast<double>(s.duration());
    } else if (s.name == tracer.s_iteration) {
      iteration_total += static_cast<double>(s.duration());
      iteration_us.push_back(static_cast<double>(s.duration()) * 1e-3);
    }
  }
  const Summary it = summarize(iteration_us);
  out.layer("planning.controller_setup_ms",
            table.self_ns("planning.controller_setup") / missions * 1e-6, "ms");
  out.layer("planning.setup_share",
            table.self_ns("planning.controller_setup") / mission_total,
            "ratio");
  out.layer("planning.control_ns", per_call("planning.control"), "ns");
  out.layer("sim.actuation_ns", per_call("sim.actuation"), "ns");
  out.layer("sim.simulator.step_ns", per_call("sim.simulator.step"), "ns");
  out.layer("attacks.truth_ns", per_call("attacks.truth"), "ns");
  for (const auto& [workflow, id] : tracer.s_sensing) {
    out.layer("sim.sensing." + workflow + "_ns",
              per_call(("sim.sensing." + workflow).c_str()), "ns");
  }
  out.layer("eval.score_ms", table.self_ns("eval.score") / missions * 1e-6,
            "ms");
  out.layer("eval.iteration_us.p50", it.p50, "us");
  out.layer("eval.iteration_us.p99", it.p99, "us");
  out.layer("core.detector_share",
            table.self_ns("core.roboads.step") / iteration_total, "ratio");
  out.layer("trace_overhead_ratio.mission-campaign",
            (table.wall_ns / static_cast<double>(traced_iterations)) /
                (plain_ns / static_cast<double>(plain_iterations)),
            "ratio");
  return out;
}

}  // namespace perfbench
