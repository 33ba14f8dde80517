#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {
namespace {

/// 1-based nearest-rank position of percentile `p` among `count` samples.
std::size_t nearest_rank(double p, std::size_t count) {
  // The epsilon keeps an exact product (99.9 % of 10000 = 9990) from
  // rounding up a rank through binary representation error.
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(count) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, count);
}

/// Samples past the nearest-rank position of `p` among `count` samples.
std::size_t samples_beyond(double p, std::size_t count) {
  if (count == 0) return 0;
  return count - nearest_rank(p, count);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(p, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

std::optional<Tail> tail_percentile(const std::vector<double>& samples) {
  for (const double p : kTailLadder) {
    const std::size_t beyond = samples_beyond(p, samples.size());
    if (beyond >= kMinBeyond) {
      return Tail{p, percentile(samples, p), beyond, samples.size()};
    }
  }
  return std::nullopt;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::size_t class_boundary_margin(
    double p, const std::vector<std::size_t>& class_counts) {
  const std::size_t count =
      std::accumulate(class_counts.begin(), class_counts.end(),
                      std::size_t{0});
  if (count == 0) return 0;
  const std::size_t rank = nearest_rank(p, count);
  std::size_t margin = count;
  std::size_t edge = 0;  // last rank of the block ending here
  for (std::size_t i = 0; i + 1 < class_counts.size(); ++i) {
    edge += class_counts[i];
    // Sample `edge` and sample `edge + 1` belong to different classes.
    const std::size_t gap = rank <= edge ? edge - rank : rank - edge - 1;
    margin = std::min(margin, gap);
  }
  return margin;
}

bool clear_of_class_boundaries(double p,
                               const std::vector<std::size_t>& class_counts) {
  const std::size_t count =
      std::accumulate(class_counts.begin(), class_counts.end(),
                      std::size_t{0});
  const std::size_t needed = std::max<std::size_t>(2, count / 20);
  return class_boundary_margin(p, class_counts) >= needed;
}

}  // namespace perfbench
