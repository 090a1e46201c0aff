#ifndef TRIPBENCH_REPORT_H_
#define TRIPBENCH_REPORT_H_

/// \file
/// Small shared vocabulary of the benchmark: the steady clock every
/// timestamp comes from, named metrics, and order statistics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <vector>

namespace tripbench {

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One reported number with its unit. `samples` is the count behind a
/// percentile or mean (0 when the value is a single reading).
struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

using Metrics = std::map<std::string, Metric>;

/// Linear-interpolated percentile, p in [0, 1]; 0 for no samples.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// A sample stamped with when its operation started, in seconds from
/// the start of its phase.
struct Timed {
  double at_s;
  double value;
};

/// Runs are cut into this many consecutive segments, and a run's figure
/// is the median of its segments' figures. A host that stalls the
/// benchmark for a while (CPU steal on a shared machine) then spoils
/// some segments instead of the whole run.
constexpr size_t kSegments = 10;

/// Percentile p, the median over up to kSegments time-ordered segments
/// of at least 10 / (1 - p) samples each, so every segment still has ten
/// samples beyond its percentile. Fewer samples give fewer segments,
/// down to one: the plain percentile.
inline double SegmentedPercentile(std::vector<Timed> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end(),
            [](const Timed& a, const Timed& b) { return a.at_s < b.at_s; });
  const size_t min_per_segment =
      static_cast<size_t>(std::lround(10 / (1 - p)));
  const size_t segments = std::clamp<size_t>(
      samples.size() / min_per_segment, 1, kSegments);
  std::vector<double> figures;
  for (size_t s = 0; s < segments; ++s) {
    std::vector<double> values;
    for (size_t i = samples.size() * s / segments;
         i < samples.size() * (s + 1) / segments; ++i) {
      values.push_back(samples[i].value);
    }
    figures.push_back(Percentile(std::move(values), p));
  }
  return Median(figures);
}

}  // namespace tripbench

#endif  // TRIPBENCH_REPORT_H_
