// The traced run: each workload's requests replayed through the layers'
// public calls, in the order the engine makes them, with a span around
// every call (spans.h). The replay owns its own GraphStore and ScoreCache
// (one pair per shard for warm_skewed_sharded, routed by the sharded
// engine's ShardOf) because the engine keeps its own private.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <string>
#include <vector>

#include "generate.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct TracedResult {
  std::vector<std::vector<Span>> recorders;
  std::vector<RequestBreakdown> requests;
  /// CachedScore::bytes() / edges, median over the entries the replay
  /// built.
  double bytes_per_edge = 0.0;
  /// Dirty edges / edges over every delta patch.
  double dirty_share = 0.0;
  std::vector<std::string> notes;
};

TracedResult TraceWarm(const WarmInputs& inputs, const RunOptions& options,
                       bool sharded);
TracedResult TraceRevisions(const RevisionInputs& inputs,
                            const RunOptions& options);
TracedResult TraceCold(const ColdInputs& inputs, const RunOptions& options);

/// Median self time of every span named `name`, in microseconds (0 when
/// none).
double MedianCallUs(const TracedResult& traced, SpanName name);

/// Median of self time per item (e.g. nanoseconds per scored edge) over
/// spans named `name` (0 when none).
double MedianNsPerItem(const TracedResult& traced, SpanName name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
