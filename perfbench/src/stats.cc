#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t NearestRankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

bool PercentileSupported(size_t n, double q) {
  return n > 0 && n - 1 - NearestRankIndex(n, q) >= kSamplesBeyond;
}

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t index = NearestRankIndex(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<double> LatencyFromIntendedUs(std::span<const Arrival> arrivals) {
  std::vector<double> out;
  out.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    out.push_back(static_cast<double>(a.end_ns - a.intended_ns) * 1e-3);
  }
  return out;
}

std::vector<double> LatenessUs(std::span<const Arrival> arrivals) {
  std::vector<double> out;
  out.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    out.push_back(
        static_cast<double>(std::max<int64_t>(0, a.start_ns - a.intended_ns)) *
        1e-3);
  }
  return out;
}

int SubWindowOf(int64_t offset_ns, int64_t length_ns) {
  if (offset_ns <= 0 || length_ns <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(
      kSubWindows - 1, offset_ns * kSubWindows / length_ns));
}

double MedianOfWindowPercentiles(
    const std::array<std::vector<double>, kSubWindows>& windows, double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (w.empty()) continue;
    std::vector<double> copy = w;
    per_window.push_back(Percentile(copy, q));
  }
  return Median(std::move(per_window));
}

}  // namespace perfbench
