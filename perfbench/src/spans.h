// In-memory spans for the benchmark's traced run. Spans are recorded by
// the benchmark around its own calls into each layer's public functions
// (nothing inside the library is instrumented): a name, start, end, the
// parent span and the request id. Each client thread owns one recorder;
// spans stay in memory until the run ends and are written out once.
//
// Self time is a span's duration minus the part of it its direct
// children cover; a request's layer breakdown sums self time by span
// name over the request's tree. "Unaccounted" is what an untraced call's
// median leaves after the layer medians are subtracted: the engine glue
// (locks, in-flight table, cancellation setup, telemetry) that no layer
// call covers.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Every span name the traced run records. Roots carry the request kind;
/// the rest are "<layer>.<call>" after this repository's modules.
enum SpanName : uint16_t {
  // Roots: one per timed client call.
  kRootCoveragePoint,
  kRootTopShare,
  kRootSweep,
  kRootGrowUntilConnected,
  kRootStabilityPoint,
  kRootAddGraphRevision,
  kRootColdBatch,
  // Layers.
  kStoreLookup,      ///< GraphStore::Find + Pin, and Unpin
  kStoreIntern,      ///< GraphStore::Intern
  kStoreDiff,        ///< GraphStore::DeltaBetween
  kCacheGet,         ///< ScoreCache::Get that hit
  kCacheMiss,        ///< ScoreCache::Get that missed
  kCachePut,         ///< ScoreCache::Put
  kCacheLineage,     ///< RegisterLineage, or the LineageFor/Peek walk
  kShardedRoute,     ///< ShardedBackboneEngine::ShardOf
  kCoreColumns,      ///< first Graph::edge_columns()
  kCoreScoreNC,      ///< RunMethod(NC)
  kCoreScoreDF,      ///< RunMethod(DF)
  kCoreScoreNT,      ///< RunMethod(NT)
  kSweepOrder,       ///< ScoreOrder(scored): the one sort
  kSweepProfile,     ///< BuildSweepProfile
  kDeltaPatch,       ///< DeltaRescore
  kDeltaOrderPatch,  ///< the ScoreOrder patch constructor
  kExtract,          ///< mask walk / profile reads / Stability
  kObsRecord,        ///< LatencyHistogram::Record + ShardedCounter::Add
  kHarnessAssemble,  ///< the benchmark's own CachedScore::Restore
  kNumSpanNames,
};

inline constexpr int kNumRootNames = kStoreLookup;

/// The layers a kind's table sums over, after this repository's modules.
enum Layer : uint8_t {
  kLayerGraphStore,
  kLayerScoreCache,
  kLayerSharded,
  kLayerCore,
  kLayerSweep,
  kLayerDelta,
  kLayerExtract,
  kLayerObs,
  kLayerHarness,
  kNumLayers,
};

Layer LayerOf(SpanName name);
const char* LayerName(Layer layer);

/// "coverage_point", "graph_store.lookup", ...
const char* SpanNameString(SpanName name);

inline bool IsRoot(uint16_t name) { return name < kNumRootNames; }

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  /// Index + 1 of the parent in the same recorder; 0 for a root.
  uint32_t parent = 0;
  uint16_t name = 0;
  /// Work size the span's metric divides by (edges scored); 0 if none.
  int64_t items = 0;
};

/// One client thread's spans, in open order. Capacity is fixed up front
/// so recording never reallocates mid-request.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) { spans_.reserve(capacity); }

  /// True when another request of up to `spans_needed` spans would not
  /// fit.
  bool Full(size_t spans_needed) const {
    return spans_.size() + spans_needed > spans_.capacity();
  }

  /// Opens a span under the innermost open one and returns its handle.
  uint32_t Open(SpanName name, uint64_t request);
  void Close(uint32_t handle, int64_t items = 0);

  /// Appends a finished span as a child of the innermost open one.
  void Add(SpanName name, uint64_t request, int64_t start_ns, int64_t end_ns,
           int64_t items = 0);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, SpanName name, uint64_t request)
      : recorder_(recorder), handle_(recorder.Open(name, request)) {}
  ~ScopedSpan() { recorder_.Close(handle_, items_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_items(int64_t items) { items_ = items; }

 private:
  SpanRecorder& recorder_;
  uint32_t handle_;
  int64_t items_ = 0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span.
std::vector<int64_t> SelfTimes(std::span<const Span> spans);

/// One request's tree, summed by span name.
struct RequestBreakdown {
  uint16_t root = 0;
  int64_t root_ns = 0;
  std::array<int64_t, kNumSpanNames> self_ns{};
  std::array<int64_t, kNumSpanNames> items{};
  std::array<int32_t, kNumSpanNames> calls{};
};

/// Groups one recorder's spans by request (each request has exactly one
/// root) and sums self time by name. Requests without a closed root are
/// dropped.
std::vector<RequestBreakdown> BreakDown(std::span<const Span> spans);

/// Untraced median minus the summed layer medians.
double Unaccounted(double untraced_median,
                   std::span<const double> layer_medians);

/// The per-kind table the traced run prints: each layer's self-time
/// median over the kind's requests (a request's self time in a layer is
/// summed over its calls into it, 0 where it made none), the untraced
/// median, the unaccounted glue and the tracing overhead. Per call name,
/// it also keeps the median over the requests that made the call.
struct KindTable {
  uint16_t root = 0;
  size_t requests = 0;
  std::array<double, kNumLayers> layer_median_us{};
  std::array<int64_t, kNumLayers> layer_calls{};
  std::array<double, kNumSpanNames> call_median_us{};
  std::array<int64_t, kNumSpanNames> calls{};
  double layer_sum_us = 0.0;
  double traced_root_median_us = 0.0;
  double untraced_median_us = 0.0;
  double unaccounted_us = 0.0;
  double overhead_us = 0.0;
};

KindTable BuildKindTable(uint16_t root,
                         std::span<const RequestBreakdown> requests,
                         double untraced_median_us);

void PrintKindTable(std::FILE* out, const KindTable& table);

/// Median, over requests that made the call, of the request's summed self
/// time in `name`, in microseconds; 0 when no request made it.
double MedianSelfUs(std::span<const RequestBreakdown> requests,
                    SpanName name);

/// Writes every span as one TSV line: recorder, index, parent, request,
/// name, start_ns, end_ns, self_ns, items.
bool WriteSpansTsv(const std::string& path,
                   std::span<const std::vector<Span>> recorders);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
