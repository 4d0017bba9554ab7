// Seeded input generation for the serving benchmark's workloads. Every
// input is a pure function of the seed (and, for the open-loop schedule,
// the phase length); it is generated before any engine exists, and the
// engine only ever sees the generated graphs and requests.
#ifndef PERFBENCH_GENERATE_H_
#define PERFBENCH_GENERATE_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "graph/graph.h"

namespace perfbench {

enum class WorkloadId {
  kWarmSkewed,
  kRevisionStream,
  kColdFig9,
  kWarmSkewedSharded,
};

const char* WorkloadName(WorkloadId id);
std::optional<WorkloadId> ParseWorkload(std::string_view name);

/// The three methods every workload cycles through, in this order.
inline constexpr netbone::Method kMethods[3] = {
    netbone::Method::kNoiseCorrected, netbone::Method::kDisparityFilter,
    netbone::Method::kNaiveThreshold};

// ---------------------------------------------------------------------------
// warm_skewed (and warm_skewed_sharded): many resident graphs, skewed reads.
// ---------------------------------------------------------------------------

inline constexpr int kWarmGraphs = 64;
inline constexpr int64_t kWarmMinEdges = 1500;
inline constexpr int64_t kWarmMaxEdges = 48000;
inline constexpr double kWarmZipfExponent = 1.1;
/// Phase A's fixed offered rate (requests/s): about a quarter of the
/// phase-B throughput of the parent commit on a 4-hardware-thread host
/// (115k-145k req/s). At half that throughput, a slower stretch of a shared
/// host pushed the open loop to its knee and one run's median latency rose
/// tenfold; a quarter keeps the open loop well below it. Fixed, so that
/// runs on later commits offer the same load.
inline constexpr double kWarmOfferedRate = 32500.0;
/// The request trace is this long and clients cycle through it.
inline constexpr size_t kWarmTraceLength = size_t{1} << 20;
/// Points of the kSweep grid.
inline constexpr int kSweepPoints = 16;

enum class WarmKind : uint8_t {
  kCoveragePoint,
  kTopShare,
  kSweep,
  kGrowUntilConnected,
};
inline constexpr int kNumWarmKinds = 4;

struct WarmOp {
  uint16_t graph = 0;
  uint8_t method = 0;  ///< index into kMethods
  uint8_t kind = 0;    ///< WarmKind
  float share = 0.0f;
};

struct WarmInputs {
  std::vector<netbone::Graph> graphs;
  std::vector<WarmOp> trace;
  /// Phase A's Poisson schedule: intended send offsets from the phase
  /// start, in nanoseconds, ascending.
  std::vector<int64_t> schedule_ns;
};

WarmInputs GenerateWarm(uint64_t seed, double phase_a_seconds);
std::vector<double> SweepGrid();

// ---------------------------------------------------------------------------
// revision_stream: chains of noisy re-observations of the country networks.
// ---------------------------------------------------------------------------

inline constexpr int kRevisionClients = 3;
/// Seed of the country dataset itself (GenerateCountrySuite's default).
inline constexpr uint64_t kCountryDataSeed = 42;
/// Revisions generated per chain; a run stops a chain that exhausts them.
inline constexpr int kRevisionSteps = 1000;
/// Every Nth revision also changes the matrix total (forcing NC's full
/// rescore fallback).
inline constexpr int kTotalChangeEvery = 8;
inline constexpr int kMaxRevisitBack = 4;
inline constexpr double kRevisionTouchedShare = 0.01;

struct RevisionStep {
  uint32_t moves_begin = 0;  ///< range in RevisionChain::moves
  uint32_t moves_end = 0;
  int32_t bump_edge = -1;  ///< edge gaining one unit (total changes), or -1
  float share = 0.0f;
  /// Per method: 0 reads the top share of the new revision; k > 0 reads
  /// the revision k steps back instead.
  uint8_t revisit[3] = {0, 0, 0};
};

struct RevisionChain {
  netbone::Graph base;
  /// (from, to) edge ids: one weight unit moves from `from` to `to`.
  std::vector<std::pair<int32_t, int32_t>> moves;
  std::vector<RevisionStep> steps;
};

/// kRevisionClients chains of each of the six networks: chain i revises
/// network i % 6 and belongs to client i / 6.
struct RevisionInputs {
  std::vector<RevisionChain> chains;
};

RevisionInputs GenerateRevisions(uint64_t seed);

/// Applies `step` to `edges` (the chain's current edge table, updated in
/// place) and builds the revision graph.
netbone::Graph ApplyRevisionStep(const RevisionChain& chain,
                                 const RevisionStep& step,
                                 std::vector<netbone::Edge>& edges);

// ---------------------------------------------------------------------------
// cold_fig9: Fig. 9 inputs, each made servable from nothing.
// ---------------------------------------------------------------------------

/// ER, average degree 3: 340k nodes give ~510k edges.
inline constexpr netbone::NodeId kColdNodes = 340000;
inline constexpr int kColdPool = 2;

struct ColdInputs {
  std::vector<netbone::Graph> pool;
};

ColdInputs GenerateCold(uint64_t seed);

/// A graph with the same content as `graph` and its own lazily built
/// column cache (a plain copy would share the original's).
netbone::Graph FreshCopy(const netbone::Graph& graph);

/// Digests of the generated inputs: equal seeds give equal digests.
uint64_t Digest(const WarmInputs& inputs);
uint64_t Digest(const RevisionInputs& inputs);
uint64_t Digest(const ColdInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATE_H_
