#include "host.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

Fingerprint fingerprint() {
  Fingerprint fp;
  fp.nproc = cpu_count();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  double mhz_sum = 0.0;
  std::size_t mhz_n = 0;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key =
        line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(' '));
    if (key == "model name" && fp.cpu_model.empty()) fp.cpu_model = value;
    if (key == "cpu MHz") {
      mhz_sum += std::atof(value.c_str());
      ++mhz_n;
    }
  }
  if (fp.cpu_model.empty()) fp.cpu_model = "unknown";
  fp.mhz = mhz_n > 0 ? mhz_sum / static_cast<double>(mhz_n) : 0.0;
  fp.compiler = PERFBENCH_COMPILER;
  fp.flags = PERFBENCH_FLAGS;
  fp.build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  fp.ndebug = true;
#endif
#ifdef __OPTIMIZE__
  fp.optimized = true;
#endif
  return fp;
}

std::string describe(const Fingerprint& fp) {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "host: cpu=\"%s\" nproc=%zu mhz=%.0f | build: compiler=\"%s\" "
                "type=%s flags=\"%s\" NDEBUG=%d optimized=%d",
                fp.cpu_model.c_str(), fp.nproc, fp.mhz, fp.compiler.c_str(),
                fp.build_type.c_str(), fp.flags.c_str(), fp.ndebug ? 1 : 0,
                fp.optimized ? 1 : 0);
  return buf;
}

std::size_t cpu_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string RunResult::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // Full precision, as measured; non-finite values are not valid JSON.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
