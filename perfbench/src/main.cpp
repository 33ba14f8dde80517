// perfbench: the repository's layered wall-clock benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Flags take "--flag value" or "--flag=value".  The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit codes: 0 ran (check "correct"), 1 harness error, 2 bad usage.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "harness.h"
#include "ptwgr/support/json.h"
#include "ptwgr/support/parse.h"

namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n  workloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

/// Full-precision JSON number: runs are compared with each other, so no
/// rounding.
std::string full_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return usage("unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage("--" + arg + " needs a value");
    }
    if (arg != "workload" && arg != "seed" && arg != "seconds" &&
        arg != "trace" && arg != "out-dir") {
      return usage("unknown flag --" + arg);
    }
    flags[arg] = value;
  }

  perfbench::Options options;
  options.workload = flags["workload"];
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return usage("unknown workload '" + options.workload + "'");
  }
  const auto seed = ptwgr::parse_number<std::uint64_t>(flags["seed"]);
  if (!seed) return usage("--seed must be an unsigned integer");
  const auto seconds = ptwgr::parse_number<int>(flags["seconds"]);
  if (!seconds || *seconds < 1 || *seconds > 60) {
    return usage("--seconds must be an integer in [1, 60]");
  }
  const auto trace = ptwgr::parse_number<int>(flags["trace"]);
  if (!trace || (*trace != 0 && *trace != 1)) {
    return usage("--trace must be 0 or 1");
  }
  options.seed = *seed;
  options.seconds = *seconds;
  options.trace = *trace == 1;
  options.out_dir = flags["out-dir"];

  try {
    const perfbench::RunResult result = perfbench::run_workload(options);
    std::string line = "{\"correct\": ";
    line += result.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const perfbench::Metric& m = result.metrics[i];
      if (i > 0) line += ", ";
      line += ptwgr::json::quoted(m.name) + ": {\"value\": " +
              full_number(m.value) +
              ", \"unit\": " + ptwgr::json::quoted(m.unit) + "}";
    }
    line += "}}";
    std::cout << line << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
