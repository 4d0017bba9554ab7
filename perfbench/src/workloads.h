// The untraced runs: each workload driven through the public engine API
// (BackboneEngine, or ShardedBackboneEngine for warm_skewed_sharded) with
// tracing off. They give the end-to-end metrics, the per-kind untraced
// call latencies the traced run subtracts its layers from, and the
// counters the engine and the scheduler expose.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "generate.h"
#include "oracle.h"
#include "spans.h"

namespace perfbench {

/// The tail percentile each workload reports as latency_tail_us, fixed per
/// workload. Each is supported (ten samples beyond it) by every 20-second
/// run and steady between runs on a shared host: warm_skewed*'s ~300k
/// phase-A samples support p99.9, but its p99 ranged from 0.4 to 3.1 ms
/// over ten runs whenever the hypervisor took CPU away, while p90 (set by
/// the edge-list requests) holds; revision_stream's ~1500 revisions
/// support p98, which moved by a quarter between runs, while p90 holds;
/// cold_fig9's 40-80 graphs support p75. The higher supported percentiles
/// are printed beside the result.
inline constexpr double kWarmTailQuantile = 0.90;
inline constexpr double kRevisionTailQuantile = 0.90;
inline constexpr double kColdTailQuantile = 0.75;

/// Set-up runs per benchmark run; setup_s is their median.
inline constexpr int kSetupRepeats = 9;
/// Rounds a warm run's timed windows are split into, each on one of the
/// set-ups' engines.
inline constexpr int kWarmRounds = 5;

struct RunOptions {
  uint64_t seed = 1;
  /// Length of the timed windows together, in seconds.
  double window_s = 10.0;
  /// Client threads for the warm workloads (the host's hardware threads).
  unsigned clients = 1;
  /// Keep every untraced call latency per kind (for the traced run's
  /// unaccounted column).
  bool record_calls = false;
};

struct UntracedResult {
  // End to end.
  double latency_p50_us = 0.0;
  double latency_tail_us = 0.0;
  double tail_quantile = 0.0;
  size_t latency_samples = 0;
  /// Every supported percentile of p50, p90, p99 and p99.9 over all
  /// samples of the run, as (quantile, microseconds).
  std::vector<std::pair<double, double>> percentiles;
  double throughput_rps = 0.0;
  double edges_per_s = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;

  // Counters read through the public API around the timed window.
  double lateness_p99_us = 0.0;
  double hit_ratio = 0.0;
  int64_t evictions = 0;
  double patched_share = 0.0;
  double queue_wait_us = 0.0;
  int64_t scores_computed = 0;
  int64_t sorts = 0;
  double steals_per_task = 0.0;
  int64_t parks = 0;
  double load_imbalance = 1.0;

  int64_t attempted = 0;
  int64_t failed = 0;
  CheckResult check;
  /// Broken invariants of the timed window (e.g. a warm request sorted).
  std::vector<std::string> violations;
  /// Lines printed with the result (sample counts, phase details).
  std::vector<std::string> notes;

  /// Untraced call latencies by root span name (record_calls only).
  std::array<std::vector<double>, kNumRootNames> call_us;
};

UntracedResult RunWarm(const WarmInputs& inputs, const RunOptions& options,
                       bool sharded);
UntracedResult RunRevisions(const RevisionInputs& inputs,
                            const RunOptions& options);
UntracedResult RunCold(const ColdInputs& inputs, const RunOptions& options);

/// Pins the calling client thread to one hardware thread, so warm clients
/// do not migrate between cores mid-window.
void PinClient(unsigned client);

/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// Deterministic 1-in-`one_in` selection of request `index` under `seed`.
bool Sampled(uint64_t seed, uint64_t index, uint64_t one_in);

/// Where one revision chain stands in a client's stream.
struct ChainCursor {
  size_t chain = 0;
  size_t revision = 0;  ///< revisions added so far
  std::vector<netbone::Edge> edges;  ///< the newest revision's edge table
  /// The newest fingerprints, oldest first, base included: enough for the
  /// deepest revisit.
  std::vector<uint64_t> history;

  /// Records the newest revision's fingerprint.
  void Push(uint64_t fingerprint);
};

/// The chains client `client` drives (RevisionInputs' layout), at their
/// bases.
std::vector<ChainCursor> ClientChains(const RevisionInputs& inputs,
                                      unsigned client,
                                      const std::vector<uint64_t>& base_fps);

/// Engine options shared by the untraced and traced runs.
netbone::BackboneEngineOptions RevisionEngineOptions(
    const RevisionInputs& inputs);

/// The request a warm trace entry stands for.
void FillWarmRequest(const WarmOp& op, uint64_t fingerprint,
                     const std::vector<double>& grid,
                     netbone::BackboneRequest* request);

/// The cold batch: NC/DF/NT x {coverage point, top share without edges}.
std::vector<netbone::BackboneRequest> ColdBatch(uint64_t fingerprint);

inline constexpr double kColdShare = 0.1;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
