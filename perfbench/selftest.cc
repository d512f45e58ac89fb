// perfbench_selftest — checks of the benchmark's own arithmetic, plus a
// tiny-size smoke run of every workload with its oracles.
//
//   perfbench_selftest <path-to-perfbench-binary>
//
// (python3 perfbench/run.py --self-test builds both and runs this.)
// Exits 0 when every check passes.
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "spans.h"
#include "stats.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_quantiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Summary s = summarize(v);
  check(s.n == 100 && s.p50 == 50.0 && s.p99 == 99.0,
        "nearest-rank p50/p99 of 1..100");
  check(s.mean == 50.5, "mean of 1..100");
  std::vector<double> sorted = {1, 2, 3, 4};
  check(quantile_sorted(sorted, 0.0) == 1 && quantile_sorted(sorted, 1.0) == 4,
        "quantile endpoints");
  check(quantile_sorted(sorted, 0.25) == 1 &&
            quantile_sorted(sorted, 0.26) == 2,
        "quantile rank boundary");
  check(samples_beyond(100, 0.99) == 1 && samples_beyond(100, 0.9) == 10,
        "samples beyond a quantile");
  check(tail_quantile(10) == 0.0 && tail_quantile(19) == 0.0 &&
            tail_quantile(20) == 0.5,
        "tail quantile needs ten samples beyond the median");
  check(tail_quantile(100) == 0.9 && tail_quantile(999) == 0.9 &&
            tail_quantile(1000) == 0.99,
        "tail quantile steps to p99 at 1000 samples");
  check(tail_quantile(99999) == 0.999 && tail_quantile(100000) == 0.9999,
        "tail quantile reaches p99.99 at 1e5 samples");
  check(median({3, 1, 2}) == 2, "median");
}

// Open-loop accounting with a consumer that stalls: the generator is blocked
// behind a one-slot queue for the whole stall, so items due during the stall
// go out late. Latency from the due time charges them the stall; latency
// from the send time would hide it.
void test_open_loop_stall() {
  constexpr std::size_t kItems = 40;
  constexpr std::uint64_t kPeriod = 1'000'000;  // 1 ms
  constexpr std::uint64_t kStall = 30'000'000;  // 30 ms at item 5
  OpenLoopLedger ledger(kItems + 1);            // the last is never sent
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;
  bool done = false;

  std::thread consumer([&] {
    for (;;) {
      std::size_t item = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || done; });
        if (queue.empty()) return;
        item = queue.front();
      }
      if (item == 5) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kStall));
      }
      ledger.done_slot(item) = now_ns();
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.pop_front();
      }
      cv.notify_all();
    }
  });
  std::vector<std::uint64_t> sent(kItems);
  const std::uint64_t t0 = now_ns() + 2'000'000;
  for (std::size_t i = 0; i < kItems; ++i) {
    const std::uint64_t due = t0 + i * kPeriod;
    while (now_ns() < due) std::this_thread::yield();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return queue.empty(); });  // one slot
      queue.push_back(i);
    }
    cv.notify_all();
    sent[i] = now_ns();
    ledger.offered(i, due, sent[i]);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  consumer.join();
  ledger.offered(kItems, t0, t0);  // offered, never answered

  const OpenLoopLedger::Result r = ledger.account(20.0);
  check(r.unanswered == 1, "an unanswered item is counted");
  check(r.latency_ms.size() == kItems, "answered items have latencies");
  // Item 15 was due 10 ms into the stall and could not go out before it
  // ended: ≥ 20 ms from due, but only a moment from its send.
  const double from_due = r.latency_ms[15];
  const double from_sent =
      (static_cast<double>(ledger.done_slot(15)) -
       static_cast<double>(sent[15])) * 1e-6;
  check(from_due >= 19.0, "latency from due includes the stall (" +
                              std::to_string(from_due) + " ms)");
  check(from_sent < 10.0, "latency from send would hide it (" +
                              std::to_string(from_sent) + " ms)");
  check(r.lag_ms[15] >= 19.0, "generator lag records the late send");
  check(r.over_limit >= 2, "items past the limit and unanswered count over");
}

void test_span_self_time() {
  SpanLog log;
  const std::uint32_t root = log.intern("root");
  const std::uint32_t a = log.intern("a");
  const std::uint32_t b = log.intern("b");
  const std::uint32_t c = log.intern("c");
  const std::int64_t r = log.add({root, 1, -1, 1000, 1100});
  const std::int64_t ia = log.add({a, 1, r, 1010, 1040});
  log.add({b, 1, r, 1030, 1060});   // overlaps a: union counted once
  log.add({c, 1, ia, 1015, 1020});  // grandchild
  log.add({c, 1, r, 1090, 1120});   // runs past the parent: clipped
  const std::vector<double> self = log.self_ns();
  check(self[0] == 40.0, "root self = 100 − |[10,60] ∪ [90,100]| = 40");
  check(self[1] == 25.0, "child self = 30 − grandchild 5");
  check(self[2] == 30.0 && self[3] == 5.0 && self[4] == 30.0,
        "leaf self = duration");

  SpanLog nested;
  const std::uint32_t f = nested.intern("frame");
  const std::uint32_t s = nested.intern("step");
  const std::int64_t fr = nested.add({f, 7, -1, 100, 200});
  nested.add({s, 7, fr, 110, 150});
  nested.add({s, 7, fr, 160, 190});
  const LayerTable t = nested.table(90, 230);
  check(t.self_ns("frame") == 30.0 && t.self_ns("step") == 70.0 &&
            t.calls("step") == 2.0,
        "layer table sums self time by name");
  check(t.residual_ns == 40.0 && t.wall_ns == 140.0,
        "residual = wall − Σ self (time under no span)");
}

void test_alloc_count() {
  const AllocScope scope;
  auto p = std::make_unique<int>(7);
  std::vector<double> v(100);
  const AllocTally d = scope.delta();
  check(d.count == 2 && d.bytes >= sizeof(int) + 100 * sizeof(double),
        "counting allocator sees exactly two allocations");
  (void)p;
}

// Runs the benchmark at tiny size; passes when it exits 0 and reports
// "correct": true on its last line.
void smoke(const std::string& binary, const std::string& workload, int trace) {
  const std::string dir = binary.substr(0, binary.rfind('/') + 1) + "traces";
  const std::string cmd = "mkdir -p '" + dir + "' && '" + binary +
                          "' --workload " + workload +
                          " --seed 3 --seconds 1 --size tiny --trace " +
                          std::to_string(trace) + " --trace-dir '" + dir +
                          "' 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  std::string out;
  char buf[4096];
  while (pipe != nullptr && std::fgets(buf, sizeof buf, pipe) != nullptr) {
    out += buf;
  }
  const int status = pipe != nullptr ? pclose(pipe) : -1;
  std::string last = out;
  while (!last.empty() && last.back() == '\n') last.pop_back();
  last = last.substr(last.rfind('\n') + 1);
  const bool ok = status == 0 &&
                  last.find("\"correct\": true") != std::string::npos;
  check(ok, "smoke " + workload + " --trace " + std::to_string(trace));
  if (!ok) std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  test_quantiles();
  test_open_loop_stall();
  test_span_self_time();
  test_alloc_count();
  if (argc > 1) {
    for (const char* w :
         {"detector-replay", "mission-campaign", "fleet-stream"}) {
      smoke(argv[1], w, 0);
    }
    smoke(argv[1], "fleet-stream", 1);
  } else {
    std::printf("skip smoke runs: no perfbench binary given\n");
  }
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
