// Shared plumbing of the perfbench binary: host clocks, the per-run result
// (metrics by name and unit plus output-check counts), and the robust
// statistics every host-time metric is reported through.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What one invocation was asked to do.
struct RunArgs {
  std::string workload;
  /// Offset from the workload's canonical seed: 0 reproduces the scenario
  /// registry's canonical trace, any other value is a held-out trace.
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// serve_scale_200k row of bench/baselines/BENCH_serve.json (batches,
  /// chunks, makespan cycles), read by run.py; serve_backlog's canonical
  /// trace must reproduce it. Empty when not given.
  std::vector<std::int64_t> baseline;
  std::string out_dir = ".bench_out";  ///< span logs and result artifacts
};

/// Host wall clock in seconds (steady).
double wall_now();
/// Process CPU time across all threads, in seconds.
double cpu_now();
/// Peak resident set of this process in MB (a high-water mark).
double peak_rss_mb();
/// Bytes currently allocated from the C heap (arena + mmapped blocks).
std::size_t heap_bytes_in_use();

double median(std::vector<double> v);

/// Output checks feeding `attempted` / `failed`. Failures print one line
/// each (the first few) to stderr so a broken run says what broke.
class Checks {
 public:
  /// Counts one check; `id` (when >= 0) names the failing record.
  void expect(bool ok, const char* what, std::int64_t id = -1);
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  Checks checks;
  std::vector<Metric> metrics;
  /// Host-time numbers too noisy on a shared host to carry a bound: printed
  /// and stored with the result, never part of the metrics line.
  std::vector<Metric> informational;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void inform(const std::string& name, double value, const std::string& unit) {
    informational.push_back({name, value, unit});
  }
};

/// Median seconds per call of `fn` over `batches` batches of `reps` calls:
/// how a microsecond-scale operation is timed so that it repeats.
template <typename Fn>
double seconds_per_call(Fn&& fn, int reps, int batches) {
  std::vector<double> per_call;
  per_call.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const double t0 = wall_now();
    for (int r = 0; r < reps; ++r) fn();
    per_call.push_back((wall_now() - t0) / reps);
  }
  return median(per_call);
}

/// One set-up sample: mean seconds per call of `fn` over as many calls as
/// fill `min_seconds` (at least one), so that even a microsecond-scale
/// set-up is timed over tens of milliseconds.
template <typename Fn>
double setup_sample(Fn&& fn, double min_seconds) {
  const double t0 = wall_now();
  int calls = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = wall_now() - t0;
  } while (elapsed < min_seconds);
  return elapsed / calls;
}

/// Wall time one set-up sample covers.
constexpr double kSetupSampleSeconds = 0.02;

/// Keeps a computed value alive so the optimizer cannot drop the work.
void keep(std::int64_t v);

// Workload entry points (serve_workloads.cpp, array_paper.cpp).
Result run_serve_workload(const RunArgs& args);
Result run_array_paper(const RunArgs& args);

}  // namespace perfbench
