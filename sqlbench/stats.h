// Exact order statistics over raw per-statement samples, on the
// benchmark's own clock.
#ifndef SQLBENCH_STATS_H_
#define SQLBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace sqlbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// A percentile of a sample set, with the count it was taken over.
struct Quantile {
  double value = 0;
  double pct = 0;    ///< the percentile actually reported
  size_t n = 0;      ///< samples
  bool reduced = false;  ///< requested percentile lacked 10 samples above it
};

/// Nearest-rank percentile `pct` of `v` (sorted in place). A tail
/// percentile is only reported where at least 10 samples lie beyond it;
/// with fewer samples the highest percentile that has 10 beyond it is
/// reported instead and `reduced` is set.
inline Quantile Percentile(std::vector<double>* v, double pct) {
  Quantile q;
  q.n = v->size();
  q.pct = pct;
  if (v->empty()) return q;
  std::sort(v->begin(), v->end());
  const double n = static_cast<double>(v->size());
  if (pct > 50 && n * (1 - pct / 100) < 10) {
    q.reduced = true;
    q.pct = n > 10 ? 100 * (1 - 10 / n) : 50;
  }
  size_t rank = static_cast<size_t>(std::ceil(q.pct / 100 * n));
  rank = std::min(std::max<size_t>(rank, 1), v->size());
  q.value = (*v)[rank - 1];
  return q;
}

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

inline double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

inline double Median(std::vector<double> v) { return Percentile(&v, 50).value; }

}  // namespace sqlbench

#endif  // SQLBENCH_STATS_H_
