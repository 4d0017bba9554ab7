// The stateless oracle every checked response is compared against,
// bit for bit: RunMethod + ScoreOrder + TopShare/TopK/GrowUntilConnected
// masks + CoverageOfMask for extraction kinds, profile reads of
// BuildSweepProfile for coverage points and sweeps, and Stability for
// stability points. Nothing here goes through the engine or its caches.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "service/engine.h"

namespace perfbench {

/// One response kept from a timed window for checking.
struct Sample {
  std::shared_ptr<const netbone::Graph> graph;
  std::shared_ptr<const netbone::Graph> next;  ///< kStabilityPoint only
  netbone::BackboneRequest request;
  netbone::BackboneResponse response;
};

struct CheckResult {
  int64_t checked = 0;
  int64_t mismatches = 0;
};

/// Checks every sample, scoring each (graph, method) once and freeing it
/// before the next, so memory stays at one graph's artifacts.
CheckResult CheckSamples(std::vector<Sample>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
