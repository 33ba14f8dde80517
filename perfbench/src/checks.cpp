#include "checks.h"

#include <numeric>
#include <sstream>

namespace perfbench {
namespace {

template <typename T>
void diff_field(std::ostringstream& os, const char* name, const T& got,
                const T& want) {
  if (got != want) os << name << " " << got << " != " << want << "; ";
}

}  // namespace

std::string diff_metrics(const ptwgr::RoutingMetrics& got,
                         const ptwgr::RoutingMetrics& want) {
  std::ostringstream os;
  diff_field(os, "track_count", got.track_count, want.track_count);
  diff_field(os, "area", got.area, want.area);
  diff_field(os, "total_wirelength", got.total_wirelength,
             want.total_wirelength);
  diff_field(os, "feedthrough_count", got.feedthrough_count,
             want.feedthrough_count);
  diff_field(os, "coarse_decisions", got.coarse_decisions,
             want.coarse_decisions);
  diff_field(os, "coarse_flips", got.coarse_flips, want.coarse_flips);
  diff_field(os, "switch_decisions", got.switch_decisions,
             want.switch_decisions);
  diff_field(os, "switch_flips", got.switch_flips, want.switch_flips);
  if (got.channel_density != want.channel_density) {
    os << "channel_density differs; ";
  }
  return os.str();
}

std::string check_density_sum(const ptwgr::RoutingMetrics& metrics) {
  const std::int64_t sum =
      std::accumulate(metrics.channel_density.begin(),
                      metrics.channel_density.end(), std::int64_t{0});
  if (sum == metrics.track_count) return {};
  return "channel densities sum to " + std::to_string(sum) + ", tracks " +
         std::to_string(metrics.track_count);
}

std::string check_serial(const ptwgr::RoutingResult& result,
                         const ptwgr::RoutingMetrics& reference) {
  const auto violations = ptwgr::verify_routing(result.circuit, result.wires);
  if (!violations.empty()) {
    return std::to_string(violations.size()) +
           " verification violations, first: " + violations.front();
  }
  if (std::string e = check_density_sum(result.metrics); !e.empty()) return e;
  return diff_metrics(result.metrics, reference);
}

std::string check_parallel(const ptwgr::ParallelRoutingResult& result,
                           const ptwgr::RoutingMetrics& reference) {
  if (std::string e = check_density_sum(result.metrics); !e.empty()) return e;
  return diff_metrics(result.metrics, reference);
}

std::string check_serve(const ptwgr::serve::JobResult& result,
                        const ptwgr::RoutingMetrics& reference,
                        const std::string& reference_report) {
  if (result.status != ptwgr::serve::JobStatus::Completed || !result.has_metrics) {
    return std::string("job ") + result.id + " ended " +
           ptwgr::serve::to_string(result.status) + ": " + result.error;
  }
  if (std::string e = check_density_sum(result.metrics); !e.empty()) return e;
  if (std::string e = diff_metrics(result.metrics, reference); !e.empty()) {
    return e;
  }
  if (result.run_report_json != reference_report) {
    return "job " + result.id + ": run report differs from the reference";
  }
  return {};
}

void FailureLedger::record(const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (first_error_.empty()) first_error_ = error;
}

}  // namespace perfbench
