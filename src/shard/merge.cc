#include "shard/merge.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "stats/metrics.h"

namespace roboads::shard {
namespace {

namespace json = roboads::obs::json;

// Per replication group: folded confusion counts and delay samples. Groups
// are the unit of the confidence intervals — e.g. one group per seed in
// bench/seed_robustness, so the CI measures across-seed spread.
struct GroupStats {
  std::string name;
  std::size_t jobs = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t violations = 0;
  stats::ConfusionCounts counts;  // sensor + actuator folded together
  std::vector<double> delay_seconds;
  std::size_t missed_delays = 0;  // delays never correctly detected

  bool has_metrics() const { return counts.total() > 0; }
};

void fold(GroupStats& g, const JobOutcome& o) {
  ++g.jobs;
  if (o.status == "ok") ++g.ok;
  if (o.status == "failed") ++g.failed;
  if (o.status == "violation") ++g.violations;
  g.counts.true_positives +=
      static_cast<std::size_t>(o.sensor_tp + o.actuator_tp);
  g.counts.false_positives +=
      static_cast<std::size_t>(o.sensor_fp + o.actuator_fp);
  g.counts.true_negatives +=
      static_cast<std::size_t>(o.sensor_tn + o.actuator_tn);
  g.counts.false_negatives +=
      static_cast<std::size_t>(o.sensor_fn + o.actuator_fn);
  for (const OutcomeDelay& d : o.delays) {
    if (d.seconds.has_value()) {
      g.delay_seconds.push_back(*d.seconds);
    } else {
      ++g.missed_delays;
    }
  }
}

// One report line from an ad-hoc field list (obs/jsonl.h).
template <class Visit>
void write_line(std::ostream& os, Visit&& visit) {
  json::write_object(os, visit);
  os << '\n';
}

void write_ci_line(std::ostream& os, const char* metric,
                   const std::vector<double>& samples) {
  const stats::MeanCi95 ci = stats::mean_ci95(samples);
  write_line(os, [&](json::FieldWriter& v) {
    v.expect("event", "ci");
    v("metric", std::string(metric));
    v("groups", ci.n);
    v("mean", ci.mean);
    v("stddev", ci.stddev);
    v("ci95", std::vector<double>{ci.lo, ci.hi});
  });
}

}  // namespace

MergedReport merge_outcomes(const Manifest& manifest,
                            std::vector<JobOutcome> outcomes) {
  std::set<std::string> manifest_ids;
  for (const ManifestJob& job : manifest.jobs) manifest_ids.insert(job.id);

  std::map<std::string, const JobOutcome*> by_id;
  for (const JobOutcome& o : outcomes) {
    if (manifest_ids.count(o.id) == 0) {
      throw ManifestError("outcome \"" + o.id + "\" is not in the manifest");
    }
    if (!by_id.emplace(o.id, &o).second) {
      throw ManifestError("duplicate outcome for job \"" + o.id + "\"");
    }
  }

  MergedReport report;
  report.stats.total_jobs = manifest.jobs.size();
  report.stats.completed = by_id.size();

  // Groups in manifest order (first appearance), folding only recorded
  // outcomes. Missing jobs surface in missing_ids, never as fake zeros.
  std::vector<GroupStats> groups;
  std::map<std::string, std::size_t> group_index;
  stats::ConfusionCounts total_counts;
  std::int64_t s_tp = 0, s_fp = 0, s_tn = 0, s_fn = 0;
  std::int64_t a_tp = 0, a_fp = 0, a_tn = 0, a_fn = 0;
  for (const ManifestJob& job : manifest.jobs) {
    const auto it = by_id.find(job.id);
    if (it == by_id.end()) {
      report.stats.missing_ids.push_back(job.id);
      continue;
    }
    const JobOutcome& o = *it->second;
    if (o.status == "ok") ++report.stats.ok;
    if (o.status == "failed") ++report.stats.failed;
    if (o.status == "violation") ++report.stats.violations;
    const auto inserted =
        group_index.emplace(o.group, groups.size());
    if (inserted.second) {
      groups.emplace_back();
      groups.back().name = o.group;
    }
    fold(groups[inserted.first->second], o);
    s_tp += o.sensor_tp; s_fp += o.sensor_fp;
    s_tn += o.sensor_tn; s_fn += o.sensor_fn;
    a_tp += o.actuator_tp; a_fp += o.actuator_fp;
    a_tn += o.actuator_tn; a_fn += o.actuator_fn;
  }
  report.stats.complete = report.stats.missing_ids.empty();
  total_counts.true_positives = static_cast<std::size_t>(s_tp + a_tp);
  total_counts.false_positives = static_cast<std::size_t>(s_fp + a_fp);
  total_counts.true_negatives = static_cast<std::size_t>(s_tn + a_tn);
  total_counts.false_negatives = static_cast<std::size_t>(s_fn + a_fn);

  std::ostringstream os;

  write_line(os, [&](json::FieldWriter& v) {
    json::schema_tag(v, "report", "roboads-shard-report", 1);
    v("jobs", report.stats.total_jobs);
    v("completed", report.stats.completed);
    v("complete", report.stats.complete);
  });

  // Whole-campaign aggregate.
  write_line(os, [&](json::FieldWriter& v) {
    v.expect("event", "aggregate");
    v("ok", report.stats.ok);
    v("failed", report.stats.failed);
    v("violations", report.stats.violations);
    v("sensor", std::vector<std::int64_t>{s_tp, s_fp, s_tn, s_fn});
    v("actuator", std::vector<std::int64_t>{a_tp, a_fp, a_tn, a_fn});
    v("fpr", total_counts.false_positive_rate());
    v("fnr", total_counts.false_negative_rate());
    v("f1", total_counts.f1());
  });

  // 95% confidence intervals across replication groups (groups carrying
  // mission metrics only — a fuzz group contributes no confusion counts).
  std::vector<double> fprs, fnrs, delays;
  for (const GroupStats& g : groups) {
    if (!g.has_metrics()) continue;
    fprs.push_back(g.counts.false_positive_rate());
    fnrs.push_back(g.counts.false_negative_rate());
    if (!g.delay_seconds.empty()) {
      delays.push_back(stats::mean(g.delay_seconds));
    }
  }
  if (!fprs.empty()) {
    write_ci_line(os, "fpr", fprs);
    write_ci_line(os, "fnr", fnrs);
  }
  if (!delays.empty()) write_ci_line(os, "detection_delay", delays);

  // Telemetry: per-group detection-delay distributions as mergeable
  // histograms (obs::HistogramSnapshot over the shared delay bounds). A
  // deterministic function of the outcomes alone — no wall-clock, no worker
  // identity — so the merged report stays byte-identical to the serial
  // reference with telemetry enabled.
  for (const GroupStats& g : groups) {
    if (g.delay_seconds.empty()) continue;
    obs::HistogramSnapshot hist =
        obs::HistogramSnapshot::with_bounds(obs::default_delay_bounds_s());
    for (const double d : g.delay_seconds) hist.record(d);
    const double half = hist.ci95_half_width();
    write_line(os, [&](json::FieldWriter& v) {
      v.expect("event", "telemetry");
      v("metric", std::string("detection_delay_s"));
      v("group", g.name);
      v("count", hist.count);
      v("mean", hist.mean());
      v("stddev", hist.stddev());
      v("ci95", std::vector<double>{hist.mean() - half, hist.mean() + half});
      v("p50", hist.quantile(0.50));
      v("p90", hist.quantile(0.90));
      v("p99", hist.quantile(0.99));
      v("max", hist.max);
      v("hist", hist);
    });
  }

  // Per-group lines, in manifest first-appearance order.
  for (const GroupStats& g : groups) {
    write_line(os, [&](json::FieldWriter& v) {
      v.expect("event", "group");
      v("group", g.name);
      v("jobs", g.jobs);
      v("ok", g.ok);
      v("failed", g.failed);
      v("violations", g.violations);
      if (g.has_metrics()) {
        v("fpr", g.counts.false_positive_rate());
        v("fnr", g.counts.false_negative_rate());
        v("detection_delay",
          g.delay_seconds.empty()
              ? std::nullopt
              : std::optional<double>(stats::mean(g.delay_seconds)));
        v("missed_delays", g.missed_delays);
      }
    });
  }

  // Partial coverage is reported, not hidden.
  if (!report.stats.complete) {
    write_line(os, [&](json::FieldWriter& v) {
      v.expect("event", "missing");
      v("count", report.stats.missing_ids.size());
      v("ids", report.stats.missing_ids);
    });
  }

  // Every outcome, canonically serialized in job-id order. This is the part
  // the chaos test diffs byte-for-byte against the serial reference.
  std::sort(outcomes.begin(), outcomes.end(),
            [](const JobOutcome& a, const JobOutcome& b) { return a.id < b.id; });
  for (const JobOutcome& o : outcomes) {
    os << serialize_outcome(o) << '\n';
  }

  report.text = os.str();
  return report;
}

MergedReport merge_run(const Manifest& manifest, const std::string& dir) {
  return merge_outcomes(manifest, load_run_outcomes(dir));
}

}  // namespace roboads::shard
