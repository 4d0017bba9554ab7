// Sample statistics for the serving benchmark: nearest-rank percentiles
// under the reporting rule (a percentile is reported only when at least
// ten samples lie beyond it), and open-loop latency measured from each
// request's *intended* send time, so a stall that delays later requests
// shows in their latency instead of being hidden by the late send
// (coordinated omission).
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave beyond it to be reported.
inline constexpr size_t kSamplesBeyond = 10;

/// Zero-based index of the nearest-rank q-quantile among n sorted samples
/// (q in [0, 1], n > 0): the smallest rank covering a q share of them.
size_t NearestRankIndex(size_t n, double q);

/// True when the q-quantile of n samples has at least kSamplesBeyond
/// samples ranked above it.
bool PercentileSupported(size_t n, double q);

/// Nearest-rank q-quantile of `samples` (sorted in place). 0 when empty.
double Percentile(std::vector<double>& samples, double q);

/// Median of `values` (copied; mean of the middle pair for even counts).
/// 0 when empty.
double Median(std::vector<double> values);

/// One open-loop arrival, all in one nanosecond timebase: when the
/// schedule said to send it, when a client actually called the engine,
/// and when the call returned.
struct Arrival {
  int64_t intended_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Latency as the user of an open loop sees it: completion minus the
/// intended send time.
std::vector<double> LatencyFromIntendedUs(std::span<const Arrival> arrivals);

/// How late each send ran against its schedule (never negative).
std::vector<double> LatenessUs(std::span<const Arrival> arrivals);

/// Sub-windows a timed window is split into: a run reports the median
/// over them of a per-window statistic, so that one burst of host noise
/// moves one window rather than the run's figure.
inline constexpr int kSubWindows = 10;

/// The sub-window (of kSubWindows) holding `offset_ns` of a window
/// `length_ns` long; offsets past the end land in the last one.
int SubWindowOf(int64_t offset_ns, int64_t length_ns);

/// Median over sub-windows of the q-quantile of the values in each;
/// windows without values are skipped.
double MedianOfWindowPercentiles(
    const std::array<std::vector<double>, kSubWindows>& windows, double q);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
