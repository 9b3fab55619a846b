// perfbench: the repository benchmark binary. One invocation runs one named
// workload for a host-time budget, checks every output it produced, and
// prints the metrics as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer ledger. perfbench/run.py builds this
// binary and is the command users run.
#include <sys/stat.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::Metric;
using perfbench::Result;
using perfbench::RunArgs;

const char* const kWorkloads[] = {"serve_backlog", "serve_fleet",
                                  "serve_cycle_accurate", "array_paper"};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        const auto first = v.find_first_not_of(' ');
        return first == std::string::npos ? v : v.substr(first);
      }
    }
  }
  return "unknown";
}

/// The host a result was measured on; stamped on every artifact.
std::string host_fingerprint(const std::string& commit,
                             const std::string& source_digest) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << json_escape(cpu_model())
     << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
     << "\", \"git_commit\": \"" << json_escape(commit)
     << "\", \"source_digest\": \"" << json_escape(source_digest) << "\"}";
  return os.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;  // checked
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}";
  return os.str();
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--baseline B,C,M] [--out-dir DIR] "
               "[--commit SHA] [--source-digest HEX]\nworkloads:";
  for (const char* w : kWorkloads) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--baseline") {
      std::istringstream in(v);
      std::string field;
      while (std::getline(in, field, ',')) {
        args.baseline.push_back(std::strtoll(field.c_str(), nullptr, 10));
      }
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--source-digest") {
      source_digest = v;
    } else {
      return usage();
    }
  }
  if (!(args.seconds > 0.0)) return usage();

  mkdir(args.out_dir.c_str(), 0755);  // artifacts and span logs
  Result result;
  try {
    if (args.workload == "array_paper") {
      result = perfbench::run_array_paper(args);
    } else if (args.workload == "serve_backlog" ||
               args.workload == "serve_fleet" ||
               args.workload == "serve_cycle_accurate") {
      result = perfbench::run_serve_workload(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  for (const auto* list : {&result.metrics, &result.informational}) {
    for (const Metric& m : *list) {
      result.checks.expect(std::isfinite(m.value), "every metric is finite");
    }
  }
  const bool correct = result.checks.failed() == 0;
  const std::string host = host_fingerprint(commit, source_digest);
  const double error_rate =
      result.checks.attempted() > 0
          ? static_cast<double>(result.checks.failed()) /
                static_cast<double>(result.checks.attempted())
          : 1.0;
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << result.checks.attempted()
       << ", \"failed\": " << result.checks.failed()
       << ", \"metrics\": " << metrics_json(result.metrics) << "}";
  const std::string informational = metrics_json(result.informational);

  // Full artifact: host, arguments, error rate and every metric.
  const std::string artifact = args.out_dir + "/" + args.workload + ".trace" +
                               (args.trace ? "1" : "0") + ".json";
  std::ofstream out(artifact);
  if (out) {
    out << "{\"host\": " << host << ", \"workload\": \"" << args.workload
        << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"error_rate\": " << error_rate
        << ", \"informational\": " << informational << ", \"result\": "
        << line.str() << "}\n";
  }

  std::cout << "host " << host << "\n";
  if (!result.informational.empty()) {
    std::cout << "informational " << informational << "\n";
  }
  std::cout << "error_rate " << error_rate << " (" << result.checks.failed()
            << " of " << result.checks.attempted() << " output checks failed)\n";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}
