// Exact statistics over the benchmark's raw samples, and the open-loop
// latency ledger.
//
// Every quantile the benchmark reports comes from here, computed on the raw
// samples it took itself — never from obs::Histogram bucket edges, so a
// change to the library's histograms cannot move the yardstick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank quantile of an ascending sample set: the smallest sample with
// at least q·n samples at or below it. `sorted` must be non-empty.
double quantile_sorted(const std::vector<double>& sorted, double q);

// Number of samples strictly above the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

// The highest of the percentiles 50, 90, 99, 99.9 and 99.99 (as a fraction)
// that leaves at least ten samples beyond it; 0 when n < 11.
double tail_quantile(std::size_t n);

struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_q = 0.0;  // tail_quantile(n)
  double tail = 0.0;    // the sample at tail_q
};

// Summary of a sample set (taken by value: it is sorted in place).
Summary summarize(std::vector<double> samples);

double median(std::vector<double> samples);

// Open-loop latency accounting (choosing-metrics guide §5). Each offered
// item has a due time from the generator's schedule, the time it was
// actually sent, and the time its answer arrived (0 = never answered).
// Latency runs from the due time, so a stall charges every item queued
// behind it, not only the one that hit it; the generator's own lateness is
// kept separately as a validity check.
class OpenLoopLedger {
 public:
  explicit OpenLoopLedger(std::size_t items = 0) { resize(items); }

  void resize(std::size_t items);
  std::size_t size() const { return due_ns_.size(); }

  void offered(std::size_t item, std::uint64_t due_ns, std::uint64_t sent_ns) {
    due_ns_[item] = due_ns;
    sent_ns_[item] = sent_ns;
  }
  // The answer slot for `item`; written once by whichever thread answers.
  std::uint64_t& done_slot(std::size_t item) { return done_ns_[item]; }

  struct Result {
    std::vector<double> latency_ms;  // due → answer, answered items only
    std::vector<double> lag_ms;      // due → sent, every offered item
    std::size_t unanswered = 0;
    std::size_t over_limit = 0;      // unanswered, or latency > limit
  };
  Result account(double limit_ms) const;

 private:
  std::vector<std::uint64_t> due_ns_;
  std::vector<std::uint64_t> sent_ns_;
  std::vector<std::uint64_t> done_ns_;
};

}  // namespace perfbench
