#include "spans.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "stats.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case kRootCoveragePoint:
      return "coverage_point";
    case kRootTopShare:
      return "top_share";
    case kRootSweep:
      return "sweep";
    case kRootGrowUntilConnected:
      return "grow_until_connected";
    case kRootStabilityPoint:
      return "stability_point";
    case kRootAddGraphRevision:
      return "add_graph_revision";
    case kRootColdBatch:
      return "cold_batch";
    case kStoreLookup:
      return "graph_store.lookup";
    case kStoreIntern:
      return "graph_store.intern";
    case kStoreDiff:
      return "graph_store.diff";
    case kCacheGet:
      return "score_cache.get";
    case kCacheMiss:
      return "score_cache.miss";
    case kCachePut:
      return "score_cache.put";
    case kCacheLineage:
      return "score_cache.lineage";
    case kShardedRoute:
      return "sharded.route";
    case kCoreColumns:
      return "core.columns";
    case kCoreScoreNC:
      return "core.score.NC";
    case kCoreScoreDF:
      return "core.score.DF";
    case kCoreScoreNT:
      return "core.score.NT";
    case kSweepOrder:
      return "sweep.order";
    case kSweepProfile:
      return "sweep.profile";
    case kDeltaPatch:
      return "delta.patch";
    case kDeltaOrderPatch:
      return "delta.order_patch";
    case kExtract:
      return "extract";
    case kObsRecord:
      return "obs.record";
    case kHarnessAssemble:
      return "harness.assemble";
    case kNumSpanNames:
      break;
  }
  return "unknown";
}

Layer LayerOf(SpanName name) {
  switch (name) {
    case kStoreLookup:
    case kStoreIntern:
    case kStoreDiff:
      return kLayerGraphStore;
    case kCacheGet:
    case kCacheMiss:
    case kCachePut:
    case kCacheLineage:
      return kLayerScoreCache;
    case kShardedRoute:
      return kLayerSharded;
    case kCoreColumns:
    case kCoreScoreNC:
    case kCoreScoreDF:
    case kCoreScoreNT:
      return kLayerCore;
    case kSweepOrder:
    case kSweepProfile:
      return kLayerSweep;
    case kDeltaPatch:
    case kDeltaOrderPatch:
      return kLayerDelta;
    case kExtract:
      return kLayerExtract;
    case kObsRecord:
      return kLayerObs;
    default:
      return kLayerHarness;
  }
}

const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {
      "graph_store", "score_cache", "sharded", "core",   "sweep",
      "delta",       "extract",     "obs",     "harness"};
  return kNames[layer];
}

uint32_t SpanRecorder::Open(SpanName name, uint64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? 0 : open_.back() + 1;
  const uint32_t handle = static_cast<uint32_t>(spans_.size());
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(handle);
  return handle;
}

void SpanRecorder::Close(uint32_t handle, int64_t items) {
  Span& span = spans_[handle];
  span.end_ns = NowNs();
  span.items = items;
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

void SpanRecorder::Add(SpanName name, uint64_t request, int64_t start_ns,
                       int64_t end_ns, int64_t items) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? 0 : open_.back() + 1;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.items = items;
  spans_.push_back(span);
}

std::vector<int64_t> SelfTimes(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const Span& parent = spans[span.parent - 1];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[span.parent - 1].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::vector<RequestBreakdown> BreakDown(std::span<const Span> spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<RequestBreakdown> out;
  std::unordered_map<uint64_t, size_t> by_request;
  std::vector<RequestBreakdown> pending;
  std::vector<bool> has_root;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto [it, inserted] = by_request.try_emplace(span.request, pending.size());
    if (inserted) {
      pending.emplace_back();
      has_root.push_back(false);
    }
    RequestBreakdown& request = pending[it->second];
    if (span.parent == 0 && IsRoot(span.name)) {
      request.root = span.name;
      request.root_ns = span.end_ns - span.start_ns;
      has_root[it->second] = span.end_ns >= span.start_ns;
    }
    request.self_ns[span.name] += self[i];
    request.items[span.name] += span.items;
    ++request.calls[span.name];
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    if (has_root[i]) out.push_back(pending[i]);
  }
  return out;
}

double Unaccounted(double untraced_median,
                   std::span<const double> layer_medians) {
  double sum = 0.0;
  for (const double median : layer_medians) sum += median;
  return untraced_median - sum;
}

double MedianSelfUs(std::span<const RequestBreakdown> requests,
                    SpanName name) {
  std::vector<double> values;
  for (const RequestBreakdown& r : requests) {
    if (r.calls[name] > 0) {
      values.push_back(static_cast<double>(r.self_ns[name]) * 1e-3);
    }
  }
  return Median(std::move(values));
}

KindTable BuildKindTable(uint16_t root,
                         std::span<const RequestBreakdown> requests,
                         double untraced_median_us) {
  KindTable table;
  table.root = root;
  std::vector<const RequestBreakdown*> mine;
  for (const RequestBreakdown& r : requests) {
    if (r.root == root) mine.push_back(&r);
  }
  table.requests = mine.size();
  std::vector<double> roots;
  for (const RequestBreakdown* r : mine) {
    roots.push_back(static_cast<double>(r->root_ns) * 1e-3);
  }
  table.traced_root_median_us = Median(roots);
  std::array<std::vector<double>, kNumLayers> by_layer;
  for (const RequestBreakdown* r : mine) {
    std::array<int64_t, kNumLayers> self{};
    for (int name = kNumRootNames; name < kNumSpanNames; ++name) {
      const Layer layer = LayerOf(static_cast<SpanName>(name));
      self[layer] += r->self_ns[name];
      table.layer_calls[layer] += r->calls[name];
      table.calls[name] += r->calls[name];
    }
    for (int layer = 0; layer < kNumLayers; ++layer) {
      by_layer[layer].push_back(static_cast<double>(self[layer]) * 1e-3);
    }
  }
  for (int layer = 0; layer < kNumLayers; ++layer) {
    table.layer_median_us[layer] = Median(std::move(by_layer[layer]));
    table.layer_sum_us += table.layer_median_us[layer];
  }
  for (int name = kNumRootNames; name < kNumSpanNames; ++name) {
    std::vector<double> values;
    for (const RequestBreakdown* r : mine) {
      if (r->calls[name] > 0) {
        values.push_back(static_cast<double>(r->self_ns[name]) * 1e-3);
      }
    }
    table.call_median_us[name] = Median(std::move(values));
  }
  table.untraced_median_us = untraced_median_us;
  table.unaccounted_us =
      Unaccounted(untraced_median_us, table.layer_median_us);
  table.overhead_us = table.traced_root_median_us - untraced_median_us;
  return table;
}

void PrintKindTable(std::FILE* out, const KindTable& table) {
  std::fprintf(out, "  kind %-22s requests %zu\n",
               SpanNameString(static_cast<SpanName>(table.root)),
               table.requests);
  std::fprintf(out, "    %-26s %14s %10s\n", "layer", "self_median_us",
               "calls");
  for (int layer = 0; layer < kNumLayers; ++layer) {
    if (table.layer_calls[layer] == 0) continue;
    std::fprintf(out, "    %-26s %14.3f %10lld\n",
                 LayerName(static_cast<Layer>(layer)),
                 table.layer_median_us[layer],
                 static_cast<long long>(table.layer_calls[layer]));
  }
  std::fprintf(out, "    %-26s %14.3f\n", "layers_sum", table.layer_sum_us);
  std::fprintf(out, "    %-26s %14.3f\n", "untraced_median",
               table.untraced_median_us);
  std::fprintf(out, "    %-26s %14.3f\n", "unaccounted",
               table.unaccounted_us);
  std::fprintf(out, "    %-26s %14.3f\n", "traced_root_median",
               table.traced_root_median_us);
  std::fprintf(out, "    %-26s %14.3f\n", "tracing_overhead",
               table.overhead_us);
  std::fprintf(out, "    calls (median over the requests making them):\n");
  for (int name = kNumRootNames; name < kNumSpanNames; ++name) {
    if (table.calls[name] == 0) continue;
    std::fprintf(out, "      %-24s %14.3f %10lld\n",
                 SpanNameString(static_cast<SpanName>(name)),
                 table.call_median_us[name],
                 static_cast<long long>(table.calls[name]));
  }
}

bool WriteSpansTsv(const std::string& path,
                   std::span<const std::vector<Span>> recorders) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "recorder\tindex\tparent\trequest\tname\tstart_ns\tend_ns\t"
               "self_ns\titems\n");
  for (size_t r = 0; r < recorders.size(); ++r) {
    const std::vector<Span>& spans = recorders[r];
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%zu\t%zu\t%u\t%llu\t%s\t%lld\t%lld\t%lld\t%lld\n", r,
                   i + 1, s.parent, static_cast<unsigned long long>(s.request),
                   SpanNameString(static_cast<SpanName>(s.name)),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]),
                   static_cast<long long>(s.items));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
