#include "corpus.h"

#include "fleet/replay.h"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::function<attacks::Scenario()> MissionSpec::scenario_factory() const {
  const eval::Platform* p = platform;
  const std::size_t n = scenario;
  if (const auto* k = dynamic_cast<const eval::KheperaPlatform*>(p)) {
    return [k, n] { return k->table2_scenario(n); };
  }
  const auto* t = dynamic_cast<const eval::TamiyaPlatform*>(p);
  return [t, n] { return t->scenario_battery().at(n); };
}

std::vector<MissionSpec> mission_specs(const Platforms& platforms,
                                       std::uint64_t seed,
                                       const CorpusSize& size) {
  std::vector<MissionSpec> specs;
  const auto add = [&](const eval::Platform& platform, std::size_t scenario) {
    MissionSpec spec;
    spec.platform = &platform;
    spec.scenario = scenario;
    spec.config.iterations = size.iterations;
    spec.config.seed = mix_seed(seed, specs.size()) % 1000000 + 1;
    spec.name = platform.name() + "/" + std::to_string(scenario) + "/s" +
                std::to_string(spec.config.seed);
    specs.push_back(std::move(spec));
  };
  for (std::size_t n = 1; n <= size.khepera_scenarios; ++n) {
    add(platforms.khepera, n);
  }
  for (std::size_t i = 0; i < size.tamiya_scenarios; ++i) {
    add(platforms.tamiya, i);
  }
  // Spread the faulted missions over the list (both platforms) and rotate
  // the dropped sensor through each suite.
  const std::size_t faulted = std::min(size.faulted_missions, specs.size());
  const std::size_t offset = mix_seed(seed, 1000) % specs.size();
  for (std::size_t f = 0; f < faulted; ++f) {
    MissionSpec& spec = specs[(offset + f * specs.size() / faulted) %
                              specs.size()];
    const sensors::SensorSuite& suite = spec.platform->suite();
    sim::SensorFaultSpec fault;
    fault.sensor =
        suite.sensor(mix_seed(seed, 2000 + f) % suite.count()).name();
    fault.drop_rate = size.drop_rate;
    spec.config.transport_faults =
        sim::TransportFaultConfig::single(fault, mix_seed(seed, 3000 + f));
    spec.name += "/drop-" + fault.sensor;
  }
  return specs;
}

Corpus record(const std::vector<MissionSpec>& specs) {
  Corpus corpus;
  corpus.missions.reserve(specs.size());
  std::uint64_t d = 1469598103934665603ull;
  for (const MissionSpec& spec : specs) {
    Recording rec{spec, eval::run_mission(*spec.platform,
                                          spec.scenario_factory()(),
                                          spec.config)};
    for (const eval::IterationRecord& r : rec.result.records) {
      ++corpus.steps;
      for (bool a : r.sensor_available) {
        if (!a) {
          ++corpus.masked_steps;
          break;
        }
      }
    }
    d = (d ^ digest(rec.result)) * 1099511628211ull;
    corpus.missions.push_back(std::move(rec));
  }
  corpus.digest = d;
  return corpus;
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ c[i]) * 1099511628211ull;
  }
  void num(double v) { bytes(&v, sizeof v); }
  void num(std::uint64_t v) { bytes(&v, sizeof v); }
  void vec(const Vector& v) { bytes(v.data(), v.size() * sizeof(double)); }
  void mat(const Matrix& m) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) num(m(i, j));
    }
  }
};

}  // namespace

std::uint64_t report_digest(const core::DetectionReport& r) {
  Fnv f;
  f.num(static_cast<std::uint64_t>(r.iteration));
  f.num(static_cast<std::uint64_t>(r.selected_mode));
  f.bytes(r.selected_mode_label.data(), r.selected_mode_label.size());
  for (double w : r.mode_weights) f.num(w);
  f.vec(r.state_estimate);
  f.mat(r.state_covariance);
  const core::Decision& d = r.decision;
  f.num(d.sensor_statistic);
  f.num(d.sensor_threshold);
  f.num(d.actuator_statistic);
  f.num(d.actuator_threshold);
  f.num(static_cast<std::uint64_t>(d.sensor_test_positive) |
        static_cast<std::uint64_t>(d.sensor_alarm) << 1 |
        static_cast<std::uint64_t>(d.actuator_test_positive) << 2 |
        static_cast<std::uint64_t>(d.actuator_alarm) << 3);
  for (std::size_t s : d.misbehaving_sensors) f.num(std::uint64_t{s});
  for (const core::SensorVerdict& v : d.sensor_verdicts) {
    f.num(std::uint64_t{v.sensor_index});
    f.num(static_cast<std::uint64_t>(v.misbehaving));
    f.num(v.statistic);
    f.num(v.threshold);
    f.vec(v.anomaly_estimate);
  }
  f.vec(d.actuator_anomaly);
  for (core::ModeHealthState h : r.mode_health) {
    f.num(static_cast<std::uint64_t>(h));
  }
  f.num(std::uint64_t{r.quarantined_modes});
  bool all_available = true;
  for (bool a : r.sensor_available) all_available = all_available && a;
  if (!all_available) {
    for (bool a : r.sensor_available) f.num(static_cast<std::uint64_t>(a));
  }
  for (const Vector& v : r.sensor_anomaly_by_sensor) {
    f.num(std::uint64_t{v.size()});
    f.vec(v);
  }
  f.vec(r.actuator_anomaly);
  return f.h;
}

std::uint64_t digest(const eval::MissionResult& result) {
  Fnv f;
  for (const eval::IterationRecord& r : result.records) {
    f.num(static_cast<std::uint64_t>(r.k));
    f.vec(r.x_true);
    f.vec(r.u_planned);
    f.vec(r.u_executed);
    f.vec(r.z);
    for (bool a : r.sensor_available) f.num(static_cast<std::uint64_t>(a));
    f.num(static_cast<std::uint64_t>(r.collided));
    f.num(report_digest(r.report));
    for (std::size_t s : r.truth.corrupted_sensors) f.num(std::uint64_t{s});
    f.num(static_cast<std::uint64_t>(r.truth.actuator_corrupted));
  }
  f.num(static_cast<std::uint64_t>(result.goal_reached));
  return f.h;
}

std::string compare_records(const eval::IterationRecord& a,
                            const eval::IterationRecord& b) {
  if (a.k != b.k) return "iteration index differs";
  if (!(a.x_true == b.x_true)) return "true state differs";
  if (!(a.u_planned == b.u_planned)) return "planned command differs";
  if (!(a.u_executed == b.u_executed)) return "executed command differs";
  if (!(a.z == b.z)) return "readings differ";
  if (a.sensor_available != b.sensor_available) return "availability differs";
  if (a.collided != b.collided) return "collision flag differs";
  if (!(a.truth == b.truth)) return "ground truth differs";
  return fleet::compare_reports(a.report, b.report);
}

std::string compare_missions(const eval::MissionResult& a,
                             const eval::MissionResult& b) {
  if (a.records.size() != b.records.size()) return "record count differs";
  if (a.goal_reached != b.goal_reached) return "goal outcome differs";
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const std::string why = compare_records(a.records[i], b.records[i]);
    if (!why.empty()) {
      return "k=" + std::to_string(a.records[i].k) + ": " + why;
    }
  }
  return {};
}

}  // namespace perfbench
