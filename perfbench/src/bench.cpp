#include "bench.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image that exec'd this one (the launcher's).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::size_t heap_bytes_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Checks::expect(bool ok, const char* what, std::int64_t id) {
  ++attempted_;
  if (ok) return;
  if (failed_ < 10) {
    std::cerr << "CHECK FAILED: " << what;
    if (id >= 0) std::cerr << " (id " << id << ")";
    std::cerr << "\n";
  }
  ++failed_;
}

void keep(std::int64_t v) {
  static std::atomic<std::int64_t> sink{0};
  sink.fetch_add(v, std::memory_order_relaxed);
}

}  // namespace perfbench
