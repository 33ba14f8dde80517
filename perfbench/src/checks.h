// Output checks for every job the benchmark runs, and the failure ledger
// that counts them.  A check returns an empty string when the output is
// correct and a diagnostic otherwise; nothing here throws on a bad output,
// so a corrupted result is counted, never dropped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ptwgr/parallel/parallel_router.h"
#include "ptwgr/route/metrics.h"
#include "ptwgr/route/router.h"
#include "ptwgr/serve/job.h"

namespace perfbench {

/// Field-by-field comparison; empty when identical.
std::string diff_metrics(const ptwgr::RoutingMetrics& got,
                         const ptwgr::RoutingMetrics& want);

/// The channel densities must sum to the track count.
std::string check_density_sum(const ptwgr::RoutingMetrics& metrics);

/// A serial job: the routing must pass verify_routing, its densities must
/// sum to its track count, and its metrics must equal the reference.
std::string check_serial(const ptwgr::RoutingResult& result,
                         const ptwgr::RoutingMetrics& reference);

/// A parallel job: metrics equal to the reference recorded in set-up for the
/// same (circuit, algorithm, ranks, seed), densities summing to the tracks.
std::string check_parallel(const ptwgr::ParallelRoutingResult& result,
                           const ptwgr::RoutingMetrics& reference);

/// A serve job: Completed, with metrics (and, for an observed job, the
/// canonical run report) equal to the in-process reference.
std::string check_serve(const ptwgr::serve::JobResult& result,
                        const ptwgr::RoutingMetrics& reference,
                        const std::string& reference_report);

/// Counts attempted and failed jobs; keeps the first diagnostic.
class FailureLedger {
 public:
  /// Records one attempted job; an empty `error` is a success.
  void record(const std::string& error);
  /// Records one job that threw before its output could be checked.
  void record_exception(const std::string& what) { record("exception: " + what); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::string& first_error() const { return first_error_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_error_;
};

}  // namespace perfbench
