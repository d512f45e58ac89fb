// Host/build fingerprint, process measurements and the result line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Fingerprint {
  std::string cpu_model;
  std::size_t nproc = 0;
  double mhz = 0.0;
  std::string compiler;
  std::string flags;
  std::string build_type;
  bool ndebug = false;
  bool optimized = false;
};

Fingerprint fingerprint();
std::string describe(const Fingerprint& fp);

// Online CPUs (std::thread::hardware_concurrency, at least 1). Every thread
// count the benchmark uses is bounded by this.
std::size_t cpu_count();

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The benchmark's last stdout line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  std::string json() const;
};

}  // namespace perfbench
