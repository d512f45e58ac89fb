#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t rank_index(std::size_t n, double q) {
  // The tolerance keeps q·n that is integral in exact arithmetic (0.99·1000)
  // from rounding up a rank.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  return sorted[rank_index(sorted.size(), q)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, q);
}

double tail_quantile(std::size_t n) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.9, 0.5};
  for (double q : kLadder) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.0;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.p50 = quantile_sorted(samples, 0.5);
  s.p99 = quantile_sorted(samples, 0.99);
  s.tail_q = tail_quantile(s.n);
  s.tail = s.tail_q > 0.0 ? quantile_sorted(samples, s.tail_q) : samples.back();
  return s;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, 0.5);
}

void OpenLoopLedger::resize(std::size_t items) {
  due_ns_.assign(items, 0);
  sent_ns_.assign(items, 0);
  done_ns_.assign(items, 0);
}

OpenLoopLedger::Result OpenLoopLedger::account(double limit_ms) const {
  Result r;
  r.latency_ms.reserve(due_ns_.size());
  r.lag_ms.reserve(due_ns_.size());
  for (std::size_t i = 0; i < due_ns_.size(); ++i) {
    const double lag = sent_ns_[i] > due_ns_[i]
                           ? static_cast<double>(sent_ns_[i] - due_ns_[i])
                           : 0.0;
    r.lag_ms.push_back(lag * 1e-6);
    if (done_ns_[i] == 0) {
      ++r.unanswered;
      ++r.over_limit;
      continue;
    }
    const double latency =
        done_ns_[i] > due_ns_[i]
            ? static_cast<double>(done_ns_[i] - due_ns_[i]) * 1e-6
            : 0.0;
    r.latency_ms.push_back(latency);
    if (latency > limit_ms) ++r.over_limit;
  }
  return r;
}

}  // namespace perfbench
