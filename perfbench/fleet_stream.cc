// fleet-stream: a mixed Khepera/Tamiya fleet streaming recorded missions
// through fleet::FleetService.
//
// Open phase: every robot sends one frame per control period (staggered
// across the period) at a fixed robots × Hz rate; decision latency runs from
// each frame's due time to the FleetConfig::on_report tap. Closed phase:
// each robot keeps at most `closed_window` frames in flight, sized so the
// rings can never overflow; capacity counts full steps only. A share of
// frames have their packets shuffled and a share of packets is sent twice;
// none is ever lost, so every frame must step full.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "alloc_count.h"
#include "fleet/replay.h"
#include "fleet/service.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

// One recorded mission as packets, frame by frame. A robot that reaches
// the end of the recording streams it again (lap L sends frame j as
// iteration j + 1 + L·length) with its detector state carried over.
struct Stream {
  const Recording* recording = nullptr;
  std::shared_ptr<const fleet::SessionSpec> spec;
  std::vector<fleet::FleetPacket> packets;  // robot id 0; frames in order
  std::vector<std::size_t> frame_begin;     // frame j: [b[j], b[j+1])
  std::size_t length() const { return frame_begin.size() - 1; }
};

std::vector<Stream> make_streams(const Corpus& corpus) {
  std::vector<Stream> streams;
  std::vector<std::pair<const eval::Platform*,
                        std::shared_ptr<const fleet::SessionSpec>>>
      specs;
  for (const Recording& rec : corpus.missions) {
    // Frame drops would make the session mask or force steps; the fleet
    // streams only the missions recorded on a clean transport.
    if (rec.faulted()) continue;
    const eval::Platform* p = rec.spec.platform;
    auto it = std::find_if(specs.begin(), specs.end(),
                           [p](const auto& s) { return s.first == p; });
    if (it == specs.end()) {
      specs.emplace_back(p, fleet::make_session_spec(*p));
      it = specs.end() - 1;
    }
    Stream s;
    s.recording = &rec;
    s.spec = it->second;
    for (const eval::IterationRecord& r : rec.result.records) {
      s.frame_begin.push_back(s.packets.size());
      fleet::append_iteration_packets(s.packets, 0, p->suite(), r);
    }
    s.frame_begin.push_back(s.packets.size());
    streams.push_back(std::move(s));
  }
  return streams;
}

// Order-sensitive fold of per-frame report digests: one word per robot.
std::uint64_t fold(std::uint64_t hash, std::uint64_t digest) {
  return mix_seed(hash ^ digest, 0);
}

// Folded report digests of a stream's first `frames` frames (all laps),
// index n = after n frames, from a serial RoboAds replay of the same
// frames. The first lap must reproduce the recording.
std::vector<std::uint64_t> expected_hashes(const Stream& s,
                                           std::size_t frames,
                                           Outcome& out) {
  const eval::Platform& p = *s.recording->spec.platform;
  const auto& records = s.recording->result.records;
  core::RoboAds replay(p.model(), p.suite(), p.process_cov(), s.spec->x0,
                       s.spec->p0, s.spec->config, s.spec->modes);
  std::vector<std::uint64_t> prefix(frames + 1, 0);
  for (std::size_t g = 0; g < frames; ++g) {
    const eval::IterationRecord& r = records[g % records.size()];
    const std::uint64_t d = report_digest(replay.step(r.u_planned, r.z));
    if (g < records.size() && d != report_digest(r.report)) {
      out.fail(s.recording->spec.name + ": RoboAds replay differs from the "
               "recording at frame " + std::to_string(g + 1));
    }
    prefix[g + 1] = fold(prefix[g], d);
  }
  return prefix;
}

// The order a frame's packets go out in: a seeded shuffle for a share of
// frames, and a share of packets sent twice, the copy at a random later
// point of the burst (before the frame completes, it is a duplicate to the
// session; after, a late packet).
void burst_order(Rng& rng, std::size_t count, const FleetShape& shape,
                 std::vector<std::size_t>& order) {
  order.clear();
  for (std::size_t i = 0; i < count; ++i) order.push_back(i);
  if (rng.uniform() < shape.reorder_share) {
    for (std::size_t i = count; i > 1; --i) {
      std::swap(order[i - 1], order[rng.index(i)]);
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.uniform() < shape.duplicate_share) {
      const std::size_t at = i + 1 + rng.index(order.size() - i);
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(at), order[i]);
    }
  }
}

}  // namespace

// Everything a fleet run needs, built during set-up.
class FleetRig {
 public:
  FleetRig(const RunContext& ctx, const FleetShape& shape)
      : shape_(shape), streams_(make_streams(*ctx.corpus)) {
    if (streams_.empty()) throw std::runtime_error("no clean streams");
    // Generator + pump + shard workers stay within the CPU budget, with one
    // CPU left for the rest of the host: the pump thread drains one shard
    // itself, so shards = budget − 2 (at least 1).
    shards_ = ctx.threads > 3 ? ctx.threads - 2 : 1;
    const std::size_t robots_per_shard =
        (shape.robots + shards_ - 1) / shards_;
    std::size_t max_packets = 0;
    for (const Stream& s : streams_) {
      for (std::size_t j = 0; j < s.length(); ++j) {
        max_packets = std::max(max_packets,
                               s.frame_begin[j + 1] - s.frame_begin[j]);
      }
    }
    // Worst case in one ring: every robot of the shard with a full window,
    // every packet duplicated.
    fleet::FleetConfig cfg;
    cfg.shards = shards_;
    cfg.queue_capacity =
        2 * robots_per_shard * std::max<std::size_t>(shape.closed_window, 1) *
        max_packets;
    cfg.on_report = [this](std::uint64_t robot,
                           const core::DetectionReport& report,
                           std::uint64_t) { tap(robot, report); };
    service_ = std::make_unique<fleet::FleetService>(std::move(cfg));

    robot_stream_.resize(shape.robots);
    for (std::size_t r = 0; r < shape.robots; ++r) {
      robot_stream_[r] = r % streams_.size();  // cycles both platforms
      const std::uint64_t id =
          service_->add_robot(streams_[robot_stream_[r]].spec);
      if (id != r) throw std::runtime_error("unexpected robot id");
    }
    report_hash_ = std::make_unique<std::uint64_t[]>(shape.robots);
    completed_ = std::make_unique<std::atomic<std::uint64_t>[]>(shape.robots);
    for (std::size_t r = 0; r < shape.robots; ++r) completed_[r] = 0;
  }

  std::size_t shards() const { return shards_; }
  const FleetShape& shape() const { return shape_; }
  const std::vector<Stream>& streams() const { return streams_; }
  std::size_t threads() const {
    // generator + pump + (pool workers = min(shards, cpus) − 1)
    return 2 + std::min(shards_, cpu_count()) - 1;
  }

  Outcome run(const RunContext& ctx, bool time_submits);

 private:
  // FleetConfig::on_report: runs on the shard thread that stepped the frame.
  // Each robot's slots are written only by its own shard (no migration).
  void tap(std::uint64_t robot, const core::DetectionReport& report) {
    const std::uint64_t done = now_ns();
    const std::size_t k = report.iteration;  // 1-based frame number
    if (k >= 1 && k <= open_frames_) ledger_slot(robot, k - 1) = done;
    report_hash_[robot] = fold(report_hash_[robot], report_digest(report));
    completed_[robot].store(k, std::memory_order_release);
  }

  // The open-phase answer slot of a robot's frame j (0-based).
  std::uint64_t& ledger_slot(std::size_t robot, std::size_t j) {
    const std::size_t warm = shape_.warmup_frames;
    return j < warm ? warm_ledger_.done_slot(robot * warm + j)
                    : ledger_.done_slot(
                          robot * (open_frames_ - warm) + (j - warm));
  }
  void offered(std::size_t robot, std::size_t j, std::uint64_t due,
               std::uint64_t sent) {
    const std::size_t warm = shape_.warmup_frames;
    if (j < warm) {
      warm_ledger_.offered(robot * warm + j, due, sent);
    } else {
      ledger_.offered(robot * (open_frames_ - warm) + (j - warm), due,
                      sent);
    }
  }

  void send_frame(std::size_t robot, std::size_t frame, Rng& rng,
                  std::vector<std::size_t>& order,
                  std::vector<double>* submit_ns);

  FleetShape shape_;
  std::vector<Stream> streams_;
  std::size_t shards_ = 1;
  std::unique_ptr<fleet::FleetService> service_;
  std::vector<std::size_t> robot_stream_;
  std::unique_ptr<std::uint64_t[]> report_hash_;  // folded, per robot
  std::unique_ptr<std::atomic<std::uint64_t>[]> completed_;
  std::size_t open_frames_ = 0;  // per robot, warm-up included; set by run()
  OpenLoopLedger warm_ledger_;   // first frames: checked, not in the stats
  OpenLoopLedger ledger_;
};

void FleetRig::send_frame(std::size_t robot, std::size_t frame, Rng& rng,
                          std::vector<std::size_t>& order,
                          std::vector<double>* submit_ns) {
  const Stream& s = streams_[robot_stream_[robot]];
  const std::size_t j = frame % s.length();
  const std::size_t lap_offset = frame - j;
  const std::size_t b = s.frame_begin[j];
  burst_order(rng, s.frame_begin[j + 1] - b, shape_, order);
  for (std::size_t i : order) {
    fleet::FleetPacket p = s.packets[b + i];
    p.robot = robot;
    p.packet.iteration += lap_offset;
    if (submit_ns == nullptr) {
      service_->submit(std::move(p));
    } else {
      const std::uint64_t t0 = now_ns();
      service_->submit(std::move(p));
      submit_ns->push_back(static_cast<double>(now_ns() - t0));
    }
  }
}

Outcome FleetRig::run(const RunContext& ctx, bool time_submits) {
  Outcome out;
  const std::size_t robots = shape_.robots;
  std::vector<Rng> rngs;
  rngs.reserve(robots);
  for (std::size_t r = 0; r < robots; ++r) {
    rngs.emplace_back(mix_seed(ctx.seed, 7000 + r));
  }
  std::vector<std::size_t> order;
  std::vector<double> submit_ns;
  if (time_submits) submit_ns.reserve(robots * 400);
  std::vector<double>* submit_log = time_submits ? &submit_ns : nullptr;

  // The open phase measures `open_share` of the run after its warm-up.
  const auto measured = static_cast<std::size_t>(
      std::max(1.0, std::round(shape_.open_share * ctx.seconds * shape_.hz)));
  open_frames_ = shape_.warmup_frames + measured;
  warm_ledger_.resize(robots * shape_.warmup_frames);
  ledger_.resize(robots * measured);

  service_->start();

  // --- Open phase: frame j of robot r is due at t0 + j·T + r·T/robots.
  const double period_ns = 1e9 / shape_.hz;
  const std::uint64_t t0 = now_ns() + 20'000'000;  // 20 ms to settle
  for (std::size_t j = 0; j < open_frames_; ++j) {
    for (std::size_t r = 0; r < robots; ++r) {
      const std::uint64_t due =
          t0 + static_cast<std::uint64_t>(
                   static_cast<double>(j) * period_ns +
                   static_cast<double>(r) * period_ns /
                       static_cast<double>(robots));
      for (std::uint64_t now = now_ns(); now < due; now = now_ns()) {
        if (due - now > 300'000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - 200'000));
        }
      }
      send_frame(r, j, rngs[r], order, submit_log);
      offered(r, j, due, now_ns());
    }
  }
  // Wait for the open phase to be answered (bounded by the latency limit).
  const std::uint64_t open_deadline =
      now_ns() + static_cast<std::uint64_t>(shape_.latency_limit_ms * 1e6) * 2;
  for (std::size_t r = 0; r < robots; ++r) {
    while (completed_[r].load(std::memory_order_acquire) < open_frames_ &&
           now_ns() < open_deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // --- Closed phase: credit windows, round-robin over robots.
  std::vector<std::size_t> next(robots, open_frames_);  // 0-based frame
  std::uint64_t closed_offered = 0;
  const std::uint64_t c_start = now_ns();
  // The run's time goes to the open phase first; the rest (at least 1 s)
  // measures capacity.
  const double open_s = static_cast<double>(c_start - t0) * 1e-9;
  const double closed_budget_s = std::max(1.0, ctx.seconds - open_s);
  const std::uint64_t c_end =
      c_start + static_cast<std::uint64_t>(closed_budget_s * 1e9);
  const auto steps_now = [&] {
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < robots; ++r) {
      sum += completed_[r].load(std::memory_order_acquire);
    }
    return sum;
  };
  const std::uint64_t steps_before = steps_now();
  // Capacity from the median 250 ms window of the closed phase (host
  // interference comes in bursts).
  constexpr std::uint64_t kWindow = 250'000'000;
  std::vector<double> window_steps_per_s;
  std::uint64_t window_start = c_start;
  std::uint64_t window_steps = steps_before;
  for (std::uint64_t now = c_start; now < c_end; now = now_ns()) {
    if (now - window_start >= kWindow) {
      const std::uint64_t steps = steps_now();
      window_steps_per_s.push_back(
          static_cast<double>(steps - window_steps) /
          (static_cast<double>(now - window_start) * 1e-9));
      window_start = now;
      window_steps = steps;
    }
    bool sent = false;
    for (std::size_t r = 0; r < robots; ++r) {
      const std::uint64_t done = completed_[r].load(std::memory_order_acquire);
      if (next[r] - done >= shape_.closed_window) continue;
      send_frame(r, next[r]++, rngs[r], order, submit_log);
      ++closed_offered;
      sent = true;
    }
    if (!sent) std::this_thread::yield();
  }
  // Drain: everything offered must be answered.
  const std::uint64_t drain_deadline = now_ns() + 5'000'000'000ull;
  for (std::size_t r = 0; r < robots; ++r) {
    while (completed_[r].load(std::memory_order_acquire) < next[r] &&
           now_ns() < drain_deadline) {
      std::this_thread::yield();
    }
  }
  const std::uint64_t c_stop = now_ns();
  service_->stop();

  // --- Accounting and oracles. The pump and shard threads are joined, so
  // every answer slot and folded hash is final.
  const OpenLoopLedger::Result warm =
      warm_ledger_.account(shape_.latency_limit_ms);
  const OpenLoopLedger::Result open = ledger_.account(shape_.latency_limit_ms);
  const std::uint64_t steps_after = steps_now();
  std::uint64_t unanswered_closed = 0;
  for (std::size_t r = 0; r < robots; ++r) {
    unanswered_closed += next[r] - completed_[r].load();
  }

  const fleet::FleetStatus status = service_->status();
  fleet::SessionCounters total;
  std::vector<std::size_t> replay_frames(streams_.size(), 0);
  for (std::size_t r = 0; r < robots; ++r) {
    const fleet::SessionCounters& c = service_->session_counters(r);
    total.steps += c.steps;
    total.late_packets += c.late_packets;
    total.duplicate_packets += c.duplicate_packets;
    total.unknown_source += c.unknown_source;
    total.forced_evictions += c.forced_evictions;
    total.masked_steps += c.masked_steps;
    total.command_substituted += c.command_substituted;
    std::size_t& need = replay_frames[robot_stream_[r]];
    need = std::max<std::size_t>(need, completed_[r].load());
  }
  std::vector<std::vector<std::uint64_t>> expected;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    expected.push_back(expected_hashes(streams_[i], replay_frames[i], out));
  }
  for (std::size_t r = 0; r < robots; ++r) {
    const std::uint64_t done = completed_[r].load();
    if (report_hash_[r] != expected[robot_stream_[r]][done]) {
      out.fail("robot " + std::to_string(r) + ": reports over " +
               std::to_string(done) +
               " frames differ from a serial replay of " +
               streams_[robot_stream_[r]].recording->spec.name);
    }
  }
  const std::uint64_t offered =
      warm.lag_ms.size() + open.lag_ms.size() + closed_offered;
  out.attempted = offered;
  // Each frame is offered once; any frame left unstepped, stepped masked,
  // forced or with a substituted command, or answered past the limit is a
  // failure. The counts are per frame. A forced frame is stepped incomplete,
  // so it is already a masked or a substituted step and is not added again;
  // a frame with several other faults may still count more than once, so
  // the sum is capped at the frames offered. A dropped packet always
  // surfaces as one of these frame faults; dropped and unknown-source
  // packets are shown as diagnostics and fail the run on their own only
  // when no frame fault covers them.
  const std::uint64_t frame_failures = std::min<std::uint64_t>(
      offered, warm.over_limit + open.over_limit + unanswered_closed +
                   total.masked_steps + total.command_substituted);
  const std::uint64_t lost_packets =
      status.dropped_packets + total.unknown_source;
  if (frame_failures > 0 || lost_packets > 0) {
    out.fail("fleet frames failed: over_limit=" +
             std::to_string(warm.over_limit + open.over_limit) +
             " unanswered=" + std::to_string(unanswered_closed) +
             " masked=" + std::to_string(total.masked_steps) +
             " forced=" + std::to_string(total.forced_evictions) +
             " substituted=" + std::to_string(total.command_substituted) +
             " (dropped_packets=" + std::to_string(status.dropped_packets) +
             " unknown_source=" + std::to_string(total.unknown_source) + ")");
    if (frame_failures > 1) out.failed += frame_failures - 1;
  }
  if (total.steps != steps_after) {
    out.fail("session steps " + std::to_string(total.steps) +
             " != reports tapped " + std::to_string(steps_after));
  }

  const double closed_s = static_cast<double>(c_stop - c_start) * 1e-9;
  const double closed_steps = static_cast<double>(steps_after - steps_before);
  out.throughput_per_s = window_steps_per_s.empty()
                             ? closed_steps / closed_s
                             : median(window_steps_per_s);
  out.latency_ms = summarize(open.latency_ms);
  out.threads = threads();

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "fleet: robots=%zu shards=%zu threads=%zu open=%zu frames "
                "@%.0f Hz/robot (%.0f frames/s) closed=%.3f s %.0f steps "
                "window=%zu\n",
                robots, shards_, threads(), open.lag_ms.size(), shape_.hz,
                shape_.hz * static_cast<double>(robots), closed_s,
                closed_steps, shape_.closed_window);
  out.notes += buf;

  if (time_submits) {
    const Summary sub = summarize(submit_ns);
    const Summary lag = summarize(open.lag_ms);
    fleet::FleetStatusSnapshot snap = service_->introspection();
    std::size_t high_water = 0;
    for (const fleet::ShardStat& s : snap.shards) {
      high_water = std::max(high_water, s.queue_high_water);
    }
    double max_steps = 0.0, sum_steps = 0.0;
    for (const fleet::ShardStatus& s : status.shards) {
      max_steps = std::max(max_steps, static_cast<double>(s.steps));
      sum_steps += static_cast<double>(s.steps);
    }
    out.layer("fleet.decision_latency_ms.p50", out.latency_ms.p50, "ms");
    out.layer("fleet.decision_latency_ms.p99", out.latency_ms.p99, "ms");
    out.layer("fleet.submit_ns.p50", sub.p50, "ns");
    out.layer("fleet.submit_ns.p99", sub.p99, "ns");
    out.layer("fleet.generator_lag_ms.p99", lag.p99, "ms");
    out.layer("fleet.ring_high_water", static_cast<double>(high_water),
              "count");
    out.layer("fleet.shard_step_skew",
              max_steps * static_cast<double>(status.shards.size()) /
                  sum_steps,
              "ratio");
    out.layer("fleet.dropped_packets",
              static_cast<double>(status.dropped_packets), "count");
    out.layer("fleet.forced_evictions",
              static_cast<double>(total.forced_evictions), "count");
    out.layer("fleet.masked_steps", static_cast<double>(total.masked_steps),
              "count");
    out.layer("fleet.late_packets", static_cast<double>(total.late_packets),
              "count");
    out.layer("fleet.duplicate_packets",
              static_cast<double>(total.duplicate_packets), "count");
    out.layer("fleet.command_substituted",
              static_cast<double>(total.command_substituted), "count");
    out.layer("fleet.closed_steps_per_s", out.throughput_per_s, "1/s");
  }
  return out;
}

std::shared_ptr<FleetRig> make_fleet_rig(const RunContext& ctx,
                                         const FleetShape& shape) {
  return std::make_shared<FleetRig>(ctx, shape);
}

Outcome run_fleet_stream(FleetRig& rig, const RunContext& ctx) {
  return rig.run(ctx, /*time_submits=*/false);
}

Outcome trace_fleet_stream(FleetRig& rig, const RunContext& ctx) {
  // Live service, with submit timing, for the service-side layer metrics.
  RunContext live = ctx;
  live.seconds = ctx.seconds * 0.5;
  Outcome out = rig.run(live, /*time_submits=*/true);
  const double closed_steps_per_s = out.throughput_per_s;

  // Single-thread DetectorSession replay of the same packet streams: one
  // session per clean stream, with a twin RoboAds stepping the same frames
  // for the reassembly split, and compare_reports as the oracle.
  SpanLog log;
  const std::uint32_t s_ingest = log.intern("fleet.session.ingest");
  const std::uint32_t s_step = log.intern("core.roboads.step");
  const std::uint32_t s_oracle = log.intern("oracle.compare");
  const FleetShape& shape = rig.shape();
  std::vector<std::size_t> order;

  std::uint64_t ingest_allocs = 0;  // traced pass, report sink excluded
  const auto replay = [&](bool traced) {
    std::uint64_t frames = 0;
    for (std::size_t si = 0; si < rig.streams().size(); ++si) {
      const Stream& s = rig.streams()[si];
      fleet::DetectorSession session(s.spec);
      const eval::Platform& p = *s.recording->spec.platform;
      core::RoboAds twin(p.model(), p.suite(), p.process_cov(),
                         p.initial_state(), s.spec->p0, s.spec->config,
                         s.spec->modes);
      const auto& records = s.recording->result.records;
      std::int64_t current_ingest = -1;
      std::uint64_t trace_id = 0;
      std::uint64_t sink_allocs = 0;
      session.set_report_sink([&](const core::DetectionReport& report,
                                  std::uint64_t) {
        if (!traced) return;
        const AllocScope a;
        const std::int64_t sp = log.begin(s_oracle, trace_id, current_ingest);
        const std::size_t j = report.iteration - 1;
        const std::string why =
            j < records.size()
                ? fleet::compare_reports(report, records[j].report)
                : std::string("report past the recording");
        log.end(sp);
        sink_allocs += a.delta().count;
        if (!why.empty()) {
          out.fail(s.recording->spec.name + " session frame " +
                   std::to_string(j + 1) + ": " + why);
        }
      });
      Rng rng(mix_seed(ctx.seed, 9000 + si));
      for (std::size_t j = 0; j < s.length(); ++j) {
        const std::size_t b = s.frame_begin[j];
        burst_order(rng, s.frame_begin[j + 1] - b, shape, order);
        trace_id = j;
        for (std::size_t i : order) {
          if (traced) current_ingest = log.begin(s_ingest, j);
          const AllocScope a;
          const std::uint64_t sink_before = sink_allocs;
          session.ingest(s.packets[b + i]);
          if (traced) {
            ingest_allocs += a.delta().count - (sink_allocs - sink_before);
            log.end(current_ingest);
          }
        }
        if (traced) {
          const eval::IterationRecord& rec = records[j];
          const std::int64_t sp = log.begin(s_step, j);
          const core::DetectionReport r =
              twin.step(rec.u_planned, rec.z, rec.sensor_available);
          log.end(sp);
        }
        ++frames;
      }
      if (!session.idle() || session.counters().masked_steps != 0 ||
          session.counters().forced_evictions != 0) {
        out.fail(s.recording->spec.name + ": session did not step every "
                 "frame full");
      }
    }
    return frames;
  };

  const std::uint64_t plain_start = now_ns();
  const std::uint64_t plain_frames = replay(false);
  const double plain_ns = static_cast<double>(now_ns() - plain_start);

  const std::uint64_t t_start = now_ns();
  const std::uint64_t traced_frames = replay(true);
  const std::uint64_t t_stop = now_ns();
  out.attempted += traced_frames;
  const LayerTable table = log.table(t_start, t_stop);
  out.notes +=
      render_table("fleet-stream (single-thread session replay)", table);
  if (!ctx.trace_path.empty()) log.write_jsonl(ctx.trace_path);

  const double frames = static_cast<double>(traced_frames);
  const double ingest_per_frame =
      table.self_ns("fleet.session.ingest") / frames;
  out.layer("fleet.session.ingest_ns", ingest_per_frame, "ns");
  out.layer("fleet.session.reassembly_ns",
            ingest_per_frame - table.self_ns("core.roboads.step") / frames,
            "ns");
  out.layer("fleet.session.allocs_per_frame",
            static_cast<double>(ingest_allocs) / frames, "count");
  out.layer("fleet.shard_utilization",
            closed_steps_per_s * ingest_per_frame * 1e-9 /
                static_cast<double>(rig.shards()),
            "ratio");
  out.layer("trace_overhead_ratio.fleet-stream",
            (table.wall_ns / frames) /
                (plain_ns / static_cast<double>(plain_frames)),
            "ratio");
  return out;
}

}  // namespace perfbench
