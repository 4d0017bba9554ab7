#include "traced.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/delta_rescore.h"
#include "core/filter.h"
#include "core/sweep.h"
#include "eval/stability.h"
#include "graph/delta.h"
#include "obs/metrics.h"
#include "service/graph_store.h"
#include "service/score_cache.h"
#include "service/sharded_engine.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace nb = netbone;

/// One engine's worth of state: the store and cache the engine would own.
struct Replica {
  Replica(int64_t cache_budget, int64_t graph_budget)
      : store(graph_budget), cache(cache_budget) {}
  nb::GraphStore store;
  nb::ScoreCache cache;
};

/// Shared by every client of one replay.
struct ReplayShared {
  nb::obs::LatencyHistogram latency;
  nb::obs::ShardedCounter requests;
  std::mutex mu;
  std::vector<double> bytes_per_edge;
  int64_t dirty = 0;
  int64_t patched_edges = 0;
};

SpanName ScoreSpan(nb::Method method) {
  switch (method) {
    case nb::Method::kNoiseCorrected:
      return kCoreScoreNC;
    case nb::Method::kDisparityFilter:
      return kCoreScoreDF;
    default:
      return kCoreScoreNT;
  }
}

SpanName RootFor(nb::RequestKind kind) {
  switch (kind) {
    case nb::RequestKind::kCoveragePoint:
      return kRootCoveragePoint;
    case nb::RequestKind::kTopShare:
      return kRootTopShare;
    case nb::RequestKind::kSweep:
      return kRootSweep;
    case nb::RequestKind::kGrowUntilConnected:
      return kRootGrowUntilConnected;
    default:
      return kRootStabilityPoint;
  }
}

/// One client thread of a replay.
class Client {
 public:
  Client(ReplayShared& shared, size_t span_capacity)
      : shared_(shared), rec_(span_capacity) {}

  SpanRecorder& recorder() { return rec_; }

  /// The engine's score resolution for one key, cheapest road first: the
  /// cache, a delta patch from a warm lineage ancestor, a full rescore.
  std::shared_ptr<const nb::CachedScore> Resolve(
      Replica& replica, uint64_t request, const nb::ScoreKey& key,
      const std::shared_ptr<const nb::Graph>& graph) {
    {
      const int64_t t0 = NowNs();
      std::shared_ptr<const nb::CachedScore> hit = replica.cache.Get(key);
      rec_.Add(hit != nullptr ? kCacheGet : kCacheMiss, request, t0, NowNs());
      if (hit != nullptr) return hit;
    }
    if (nb::SupportsDeltaRescore(key.method)) {
      if (auto patched = TryPatch(replica, request, key, graph)) {
        return patched;
      }
    }
    Columns(request, *graph);
    std::optional<nb::ScoredEdges> scored;
    {
      ScopedSpan span(rec_, ScoreSpan(key.method), request);
      nb::Result<nb::ScoredEdges> result =
          nb::RunMethod(key.method, *graph, nb::RunMethodOptions{});
      if (!result.ok()) return nullptr;
      scored.emplace(*std::move(result));
      span.set_items(graph->num_edges());
    }
    std::optional<nb::ScoreOrder> order;
    {
      ScopedSpan span(rec_, kSweepOrder, request);
      order.emplace(*scored);
    }
    return Finish(replica, request, key, graph, std::move(*scored), *order,
                  std::nullopt);
  }

  /// Find + Pin, the request's resolve and extraction, Unpin, telemetry,
  /// under the caller's open root span (which began at `begin_ns`).
  std::optional<nb::BackboneResponse> Serve(Replica& replica,
                                            uint64_t request,
                                            const nb::BackboneRequest& r,
                                            int64_t begin_ns) {
    std::shared_ptr<const nb::Graph> graph;
    {
      ScopedSpan span(rec_, kStoreLookup, request);
      graph = replica.store.Find(r.graph);
      if (graph != nullptr) replica.store.Pin(r.graph);
    }
    if (graph == nullptr) return std::nullopt;
    std::shared_ptr<const nb::CachedScore> score = Resolve(
        replica, request, nb::MakeScoreKey(r.graph, r.method, r.score_options),
        graph);
    {
      ScopedSpan span(rec_, kStoreLookup, request);
      replica.store.Unpin(r.graph);
    }
    if (score == nullptr) return std::nullopt;
    std::optional<nb::BackboneResponse> response;
    {
      ScopedSpan span(rec_, kExtract, request);
      response = Extract(replica, r, *score);
    }
    {
      ScopedSpan span(rec_, kObsRecord, request);
      shared_.latency.Record(NowNs() - begin_ns);
      shared_.requests.Add(1);
    }
    return response;
  }

 private:
  void Columns(uint64_t request, const nb::Graph& graph) {
    if (graph.edge_columns_materialized()) return;
    ScopedSpan span(rec_, kCoreColumns, request);
    graph.edge_columns();
  }

  std::shared_ptr<const nb::CachedScore> TryPatch(
      Replica& replica, uint64_t request, const nb::ScoreKey& key,
      const std::shared_ptr<const nb::Graph>& graph) {
    // The engine's lineage walk: nearest warm ancestor within 8 hops;
    // the stored delta is usable only when that ancestor is the parent.
    std::shared_ptr<const nb::CachedScore> base;
    std::shared_ptr<const nb::GraphDelta> delta;
    uint64_t base_fp = 0;
    {
      ScopedSpan span(rec_, kCacheLineage, request);
      uint64_t fp = key.graph;
      for (int hop = 0; hop < 8; ++hop) {
        nb::ScoreCache::Lineage lineage = replica.cache.LineageFor(fp);
        if (lineage.parent == 0 || lineage.parent == key.graph) break;
        if (auto entry = replica.cache.Peek(
                nb::MakeScoreKey(lineage.parent, key.method, key.options))) {
          base = std::move(entry);
          base_fp = lineage.parent;
          if (fp == key.graph) delta = std::move(lineage.delta);
          break;
        }
        fp = lineage.parent;
      }
    }
    if (base == nullptr) return nullptr;
    Columns(request, *graph);
    std::optional<nb::DeltaRescoreResult> patch;
    {
      ScopedSpan span(rec_, kDeltaPatch, request);
      std::optional<nb::GraphDelta> computed;
      if (delta == nullptr) {
        nb::Result<nb::GraphDelta> diff =
            nb::ComputeGraphDelta(base->graph(), *graph);
        if (!diff.ok()) return nullptr;
        computed = *std::move(diff);
      }
      nb::Result<std::optional<nb::DeltaRescoreResult>> rescored =
          nb::DeltaRescore(key.method, base->scored(), *graph,
                           delta != nullptr ? *delta : *computed,
                           nb::DeltaRescoreOptions{});
      if (!rescored.ok() || !rescored->has_value()) return nullptr;
      patch = std::move(**rescored);
      span.set_items(static_cast<int64_t>(patch->dirty.size()));
    }
    {
      std::lock_guard<std::mutex> lock(shared_.mu);
      shared_.dirty += static_cast<int64_t>(patch->dirty.size());
      shared_.patched_edges += graph->num_edges();
    }
    nb::ScoredEdges scored(graph.get(), base->scored().method(),
                           std::move(patch->scores),
                           base->scored().has_sdev());
    std::optional<nb::ScoreOrder> order;
    {
      ScopedSpan span(rec_, kDeltaOrderPatch, request);
      order.emplace(scored, base->order(), patch->base_to_next, patch->dirty);
    }
    return Finish(replica, request, key, graph, std::move(scored), *order,
                  nb::CachedScore::DeltaProvenance{
                      base_fp, static_cast<int64_t>(patch->dirty.size()),
                      graph->num_edges()});
  }

  /// Profile build, then the entry and its Put. The entry is assembled
  /// from the pieces timed above through CachedScore::Restore, which the
  /// engine does not do; its span is the benchmark's own cost.
  std::shared_ptr<const nb::CachedScore> Finish(
      Replica& replica, uint64_t request, const nb::ScoreKey& key,
      const std::shared_ptr<const nb::Graph>& graph, nb::ScoredEdges scored,
      const nb::ScoreOrder& order,
      std::optional<nb::CachedScore::DeltaProvenance> provenance) {
    nb::SweepProfile profile;
    {
      ScopedSpan span(rec_, kSweepProfile, request);
      profile = nb::BuildSweepProfile(order);
    }
    std::shared_ptr<const nb::CachedScore> entry;
    {
      ScopedSpan span(rec_, kHarnessAssemble, request);
      std::vector<nb::EdgeId> ids(order.ids().begin(), order.ids().end());
      nb::Result<std::shared_ptr<const nb::CachedScore>> restored =
          nb::CachedScore::Restore(graph, std::move(scored), std::move(ids),
                                   std::move(profile), provenance);
      if (!restored.ok()) return nullptr;
      entry = *std::move(restored);
    }
    {
      ScopedSpan span(rec_, kCachePut, request);
      replica.cache.Put(key, entry);
    }
    std::lock_guard<std::mutex> lock(shared_.mu);
    shared_.bytes_per_edge.push_back(static_cast<double>(entry->bytes()) /
                                     static_cast<double>(graph->num_edges()));
    return entry;
  }

  /// The engine's response assembly, from the same public calls.
  std::optional<nb::BackboneResponse> Extract(Replica& replica,
                                              const nb::BackboneRequest& r,
                                              const nb::CachedScore& score) {
    const nb::ScoreOrder& order = score.order();
    const nb::SweepProfile& profile = score.profile();
    nb::BackboneResponse out;
    const auto fill = [&](int64_t k) {
      const int64_t kept = std::clamp<int64_t>(k, 0, order.size());
      out.kept = kept;
      if (profile.target_nodes > 0) out.coverage = profile.CoverageAt(kept);
      out.weight_share = profile.WeightShareAt(kept);
      if (r.include_edges) {
        out.kept_edges = nb::MaskToEdgeIds(order.PrefixMask(k));
      }
    };
    switch (r.kind) {
      case nb::RequestKind::kTopShare:
        fill(order.KForShare(r.share));
        break;
      case nb::RequestKind::kGrowUntilConnected:
        fill(profile.connect_k);
        break;
      case nb::RequestKind::kSweep:
        for (const double share : r.shares) {
          const int64_t k = order.KForShare(share);
          out.sweep.push_back(nb::SweepPoint{k, profile.CoverageAt(k),
                                             profile.WeightShareAt(k)});
        }
        out.connect_k = profile.connect_k;
        break;
      case nb::RequestKind::kCoveragePoint: {
        const int64_t k = order.KForShare(r.share);
        out.kept = k;
        out.coverage = profile.CoverageAt(k);
        out.weight_share = profile.WeightShareAt(k);
        break;
      }
      case nb::RequestKind::kStabilityPoint: {
        std::shared_ptr<const nb::Graph> next =
            replica.store.Find(r.next_graph);
        if (next == nullptr) return std::nullopt;
        const nb::BackboneMask mask =
            order.PrefixMask(order.KForShare(r.share));
        nb::Result<double> stability =
            nb::Stability(score.graph(), *next, mask);
        if (!stability.ok()) return std::nullopt;
        out.stability = *stability;
        out.kept = mask.kept;
        break;
      }
      default:
        return std::nullopt;
    }
    return out;
  }

  ReplayShared& shared_;
  SpanRecorder rec_;
};

TracedResult Collect(std::vector<std::unique_ptr<Client>>& clients,
                     ReplayShared& shared) {
  TracedResult out;
  for (std::unique_ptr<Client>& client : clients) {
    std::vector<RequestBreakdown> part =
        BreakDown(client->recorder().spans());
    out.requests.insert(out.requests.end(), part.begin(), part.end());
    out.recorders.push_back(client->recorder().spans());
  }
  out.bytes_per_edge = Median(shared.bytes_per_edge);
  out.dirty_share = shared.patched_edges > 0
                        ? static_cast<double>(shared.dirty) /
                              static_cast<double>(shared.patched_edges)
                        : 0.0;
  return out;
}

/// Spans one warm request can open.
constexpr size_t kWarmSpansPerRequest = 8;
/// Requests each warm client replays at most: enough for stable medians
/// per kind, small enough to keep every span in memory.
constexpr size_t kWarmRequestsPerClient = 16384;

}  // namespace

TracedResult TraceWarm(const WarmInputs& inputs, const RunOptions& options,
                       bool sharded) {
  const unsigned clients = options.clients;
  const int shards = sharded ? static_cast<int>(clients) : 1;
  std::unique_ptr<nb::ShardedBackboneEngine> router;
  if (sharded) {
    nb::ShardedBackboneEngineOptions router_options;
    router_options.num_shards = shards;
    router_options.engine.num_threads = shards;
    router = std::make_unique<nb::ShardedBackboneEngine>(router_options);
  }
  std::vector<std::unique_ptr<Replica>> replicas;
  for (int s = 0; s < shards; ++s) {
    replicas.push_back(std::make_unique<Replica>(0, 0));
  }
  ReplayShared shared;
  std::vector<uint64_t> fps;
  {
    // Set-up through the same calls, with its spans discarded.
    Client setup(shared, 64);
    for (const nb::Graph& g : inputs.graphs) {
      const uint64_t fp = nb::GraphFingerprint(g);
      const int shard = sharded ? router->ShardOf(fp) : 0;
      Replica& replica = *replicas[static_cast<size_t>(shard)];
      const nb::StoredGraph stored = replica.store.Intern(FreshCopy(g));
      for (const nb::Method method : kMethods) {
        setup.Resolve(replica, 0, nb::MakeScoreKey(stored.fingerprint, method,
                                                   nb::ScoreOptions{}),
                      stored.graph);
      }
      fps.push_back(stored.fingerprint);
    }
  }
  const std::vector<double> grid = SweepGrid();
  std::vector<std::unique_ptr<Client>> workers;
  for (unsigned c = 0; c < clients; ++c) {
    workers.push_back(std::make_unique<Client>(
        shared, kWarmSpansPerRequest * kWarmRequestsPerClient));
  }
  std::atomic<size_t> next{0};
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.window_s * 1e9);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PinClient(c);
      Client& client = *workers[c];
      nb::BackboneRequest request;
      for (size_t done = 0; done < kWarmRequestsPerClient; ++done) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        const WarmOp& op = inputs.trace[i % inputs.trace.size()];
        FillWarmRequest(op, fps[op.graph], grid, &request);
        const uint64_t id = i + 1;
        ScopedSpan root(client.recorder(), RootFor(request.kind), id);
        const int64_t begin = NowNs();
        int shard = 0;
        if (sharded) {
          ScopedSpan span(client.recorder(), kShardedRoute, id);
          shard = router->ShardOf(request.graph);
        }
        client.Serve(*replicas[static_cast<size_t>(shard)], id, request,
                     begin);
        if (NowNs() >= deadline) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TracedResult out = Collect(workers, shared);
  out.notes.push_back("traced replay: " + std::to_string(out.requests.size()) +
                      " requests at " + std::to_string(clients) +
                      " clients");
  return out;
}

TracedResult TraceRevisions(const RevisionInputs& inputs,
                            const RunOptions& options) {
  const nb::BackboneEngineOptions engine_options =
      RevisionEngineOptions(inputs);
  Replica replica(engine_options.cache_byte_budget,
                  engine_options.graph_byte_budget);
  ReplayShared shared;
  const size_t chains = inputs.chains.size();
  std::vector<uint64_t> base_fps(chains);
  {
    Client setup(shared, 64);
    for (size_t c = 0; c < chains; ++c) {
      const nb::StoredGraph stored =
          replica.store.Intern(FreshCopy(inputs.chains[c].base));
      base_fps[c] = stored.fingerprint;
      for (const nb::Method method : kMethods) {
        setup.Resolve(replica, 0,
                      nb::MakeScoreKey(stored.fingerprint, method,
                                       nb::ScoreOptions{}),
                      stored.graph);
      }
    }
  }
  const unsigned clients = kRevisionClients;
  std::vector<std::unique_ptr<Client>> workers;
  for (unsigned c = 0; c < clients; ++c) {
    workers.push_back(std::make_unique<Client>(shared, size_t{1} << 20));
  }
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.window_s * 1e9);
  std::atomic<uint64_t> ids{1};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *workers[c];
      SpanRecorder& rec = client.recorder();
      std::vector<ChainCursor> mine = ClientChains(inputs, c, base_fps);
      for (size_t turn = 0; NowNs() < deadline && !rec.Full(256); ++turn) {
        ChainCursor& s = mine[turn % mine.size()];
        const RevisionChain& chain = inputs.chains[s.chain];
        const size_t r = s.revision + 1;
        if (r > chain.steps.size()) break;
        const RevisionStep& step = chain.steps[r - 1];
        nb::Graph graph = ApplyRevisionStep(chain, step, s.edges);
        const uint64_t prev = s.history.back();
        uint64_t fp = 0;
        {
          const uint64_t id = ids.fetch_add(1);
          ScopedSpan root(rec, kRootAddGraphRevision, id);
          nb::StoredGraph stored;
          {
            ScopedSpan span(rec, kStoreIntern, id);
            stored = replica.store.Intern(std::move(graph));
          }
          fp = stored.fingerprint;
          std::shared_ptr<const nb::GraphDelta> delta;
          {
            ScopedSpan span(rec, kStoreDiff, id);
            nb::Result<nb::GraphDelta> diff =
                replica.store.DeltaBetween(prev, fp);
            if (diff.ok()) {
              delta = std::make_shared<const nb::GraphDelta>(*std::move(diff));
            }
          }
          {
            ScopedSpan span(rec, kCacheLineage, id);
            replica.cache.RegisterLineage(fp, prev, std::move(delta));
          }
        }
        s.Push(fp);
        nb::BackboneRequest request;
        request.share = step.share;
        for (int m = 0; m < 3; ++m) {
          request.graph = fp;
          request.method = kMethods[m];
          request.kind = nb::RequestKind::kCoveragePoint;
          const uint64_t id = ids.fetch_add(1);
          ScopedSpan root(rec, kRootCoveragePoint, id);
          client.Serve(replica, id, request, NowNs());
        }
        for (int m = 0; m < 3; ++m) {
          request.graph = s.history[s.history.size() - 1 - step.revisit[m]];
          request.method = kMethods[m];
          request.kind = nb::RequestKind::kTopShare;
          const uint64_t id = ids.fetch_add(1);
          ScopedSpan root(rec, kRootTopShare, id);
          client.Serve(replica, id, request, NowNs());
        }
        request.graph = prev;
        request.next_graph = fp;
        request.method = kMethods[r % 3];
        request.kind = nb::RequestKind::kStabilityPoint;
        {
          const uint64_t id = ids.fetch_add(1);
          ScopedSpan root(rec, kRootStabilityPoint, id);
          client.Serve(replica, id, request, NowNs());
        }
        request.next_graph = 0;
        s.revision = r;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TracedResult out = Collect(workers, shared);
  out.notes.push_back("traced replay: " + std::to_string(out.requests.size()) +
                      " calls at " + std::to_string(clients) +
                      " clients");
  return out;
}

TracedResult TraceCold(const ColdInputs& inputs, const RunOptions& options) {
  Replica replica(0, 0);
  ReplayShared shared;
  std::vector<std::unique_ptr<Client>> workers;
  workers.push_back(std::make_unique<Client>(shared, size_t{1} << 16));
  Client& client = *workers[0];
  SpanRecorder& rec = client.recorder();
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.window_s * 1e9);
  uint64_t id = 1;
  for (size_t i = 0; NowNs() < deadline && !rec.Full(128); ++i) {
    nb::Graph copy = FreshCopy(inputs.pool[i % inputs.pool.size()]);
    const uint64_t root_id = id++;
    uint64_t fp = 0;
    {
      ScopedSpan root(rec, kRootColdBatch, root_id);
      const int64_t begin = NowNs();
      nb::StoredGraph stored;
      {
        ScopedSpan span(rec, kStoreIntern, root_id);
        stored = replica.store.Intern(std::move(copy));
      }
      fp = stored.fingerprint;
      for (const nb::BackboneRequest& request : ColdBatch(fp)) {
        // Each request's spans are children of the batch: the batch is
        // the one call the client made.
        client.Serve(replica, root_id, request, begin);
      }
    }
    replica.store.Erase(fp);
    replica.cache.EraseGraphEntries(fp);
  }
  TracedResult out = Collect(workers, shared);
  out.notes.push_back("traced replay: " + std::to_string(out.requests.size()) +
                      " cold batches");
  out.notes.push_back(
      "the replay resolves a batch's three keys one after another, the "
      "engine concurrently: cold_batch's unaccounted is minus that overlap, "
      "and its tracing overhead includes it");
  return out;
}

double MedianCallUs(const TracedResult& traced, SpanName name) {
  std::vector<double> values;
  for (const std::vector<Span>& spans : traced.recorders) {
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == name) {
        values.push_back(static_cast<double>(self[i]) * 1e-3);
      }
    }
  }
  return Median(std::move(values));
}

double MedianNsPerItem(const TracedResult& traced, SpanName name) {
  std::vector<double> values;
  for (const std::vector<Span>& spans : traced.recorders) {
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == name && spans[i].items > 0) {
        values.push_back(static_cast<double>(self[i]) /
                         static_cast<double>(spans[i].items));
      }
    }
  }
  return Median(std::move(values));
}

}  // namespace perfbench
