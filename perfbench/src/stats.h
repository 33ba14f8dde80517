// Order statistics the benchmark reports: medians, the tail percentile with
// at least ten samples beyond it, the geometric mean over job classes, and
// the class-boundary rule for mixed workloads.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Median of `samples` (mean of the two middle values for even sizes);
/// 0 when empty.
double median(std::vector<double> samples);

/// The tail percentile of a latency distribution.
struct Tail {
  double percentile = 0.0;  ///< e.g. 90 for p90
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples strictly past the percentile's rank
  std::size_t count = 0;   ///< samples in the distribution
};

/// Percentiles the tail is chosen from.  A coarse fixed ladder keeps the
/// reported percentile from moving with every small change in the job count:
/// each rung holds for a 2.5–10× range of counts.
inline constexpr double kTailLadder[] = {99.9, 99.0, 90.0, 75.0, 50.0};
inline constexpr std::size_t kMinBeyond = 10;

/// The highest ladder percentile that still has at least kMinBeyond samples
/// beyond it; nullopt when even p50 has fewer.
std::optional<Tail> tail_percentile(const std::vector<double>& samples);

/// Geometric mean of positive values; 0 when empty or any value <= 0.
double geomean(const std::vector<double>& values);

/// Class-boundary rule.  In a mixed workload whose classes are well
/// separated in latency, the sorted samples form one block per class.  A
/// percentile whose rank lies near the edge of a block jumps between two
/// classes from run to run.  Returns the distance, in samples, from the
/// nearest-rank position of `p` to the nearest inner block edge, assuming
/// the blocks are ordered as `class_counts` lists them (fastest first).
/// With a single class there is no inner edge and the result is `count`.
std::size_t class_boundary_margin(double p,
                                  const std::vector<std::size_t>& class_counts);

/// True when `p` keeps at least max(2, 5 % of the samples) away from every
/// class boundary.
bool clear_of_class_boundaries(double p,
                               const std::vector<std::size_t>& class_counts);

}  // namespace perfbench
