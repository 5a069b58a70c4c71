// perfbench/src/stats.hpp — order statistics for the benchmark's reports.
//
// Every timing is reported as a median plus the highest percentile that
// still has at least ten samples beyond it, together with the sample count,
// so a tail figure is never read off a handful of points.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

/// 1-based nearest rank of the q-th percentile (q in [0, 100]) of n
/// samples. The small offset keeps q * n / 100 from rounding up past an
/// exact integer (99.9% of 10000 is rank 9990, not 9991).
inline std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(n, 1));
}

/// Nearest-rank percentile of `sorted`, which must be sorted ascending and
/// non-empty.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

/// The percentile ladder the tail helper chooses from, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// The highest ladder percentile with at least `min_beyond` samples beyond
/// it, or 0 when even the median does not qualify.
inline double tail_percentile(std::size_t n, std::size_t min_beyond = 10) {
  for (double q : kTailLadder) {
    if (samples_beyond(n, q) >= min_beyond) return q;
  }
  return 0.0;
}

/// A timing summary: median, the tail percentile and its value, and n.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail_q = 0.0;     ///< 0 when n is too small for any tail
  double tail = 0.0;       ///< value at tail_q (the median when tail_q == 0)
};

/// Summarize `v`. With `fixed_q` > 0 the tail is taken at that percentile
/// provided it keeps ten samples beyond it; otherwise (or when it does not)
/// at tail_percentile(n).
inline Summary summarize(std::vector<double> v, double fixed_q = 0.0) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = median(v);
  double q = tail_percentile(v.size());
  if (fixed_q > 0.0 && samples_beyond(v.size(), fixed_q) >= 10) q = fixed_q;
  s.tail_q = q;
  s.tail = q > 0.0 ? percentile_sorted(v, q) : s.median;
  return s;
}

/// How many windows a run's throughput is measured in.
inline constexpr int kRateWindows = 10;

/// Completions per second over wall time, measured in `windows` equal
/// windows of [0, wall_s) and reported as the median window. `done_s` holds
/// each completion's time from the start, in any order. Every window is a
/// count over wall time, so a slowdown that recurs at least once a window —
/// slow items, periodic stalls, extra queueing — lowers every window; a
/// burst of outside load (a preempted virtual CPU) that spans fewer than
/// half the windows leaves the median alone.
inline double windowed_rate(const std::vector<double>& done_s, double wall_s, int windows) {
  if (done_s.empty() || !(wall_s > 0.0) || windows < 1) return 0.0;
  const double width = wall_s / windows;
  std::vector<double> counts(static_cast<std::size_t>(windows), 0.0);
  for (double t : done_s) {
    const auto k = static_cast<std::ptrdiff_t>(std::floor(t / width));
    counts[static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(k, 0, windows - 1))] += 1.0;
  }
  return median(std::move(counts)) / width;
}

}  // namespace perfbench
