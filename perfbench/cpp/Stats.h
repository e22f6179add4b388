// Sample statistics for op latencies and probe timings.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample;
// 0 for an empty one.
double percentile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

// A tail percentile is reported only when at least this many samples lie
// beyond it, so p90 needs 100 samples.
inline constexpr std::size_t kTailSamples = 10;
bool has_p90(std::size_t n);

struct LatencySummary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;  // meaningful only when has_p90(n)
};
LatencySummary summarize(const std::vector<double>& samples);

}  // namespace perfbench
