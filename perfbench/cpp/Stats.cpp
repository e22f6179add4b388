#include "Stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

bool has_p90(std::size_t n) { return n >= 10 * kTailSamples; }

LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  s.p50 = median(samples);
  if (has_p90(s.n)) s.p90 = percentile(samples, 0.9);
  return s;
}

}  // namespace perfbench
