// The benchmark's workloads and the metrics they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for the run summary and, in a traced run, the spans; empty
  /// writes neither.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// serial-file, parallel-p4, taskgraph-p4, serve-mixed.
const std::vector<std::string>& workload_names();

/// Sets up and runs one workload.  An untraced run reports the end-to-end
/// metrics; a traced run reports the per-layer metrics.  Throws on a
/// harness error (not on a failed job: those are counted in the result).
RunResult run_workload(const Options& options);

}  // namespace perfbench
