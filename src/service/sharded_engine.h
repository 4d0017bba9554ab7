// Copyright 2026 The netbone Authors.
//
// N-shard serving: a ShardedBackboneEngine owns N independent
// BackboneEngines and routes every request to exactly one of them by
// graph fingerprint. Each shard is a complete engine — its own scheduler
// thread slice, its own ScoreCache / GraphStore byte budgets (the global
// budgets split N ways), its own snapshot subdirectory, its own metric
// namespace — so shards share no locks on the request path, and every
// response stays bit-identical to a single-engine deployment (the bench
// gate in bench/bench_sharded_serving.cc, which also measures 1->4-shard
// warm scaling).
//
// Routing invariant: a fingerprint's shard is a pure function of
// (fingerprint, routing table) — default shard Mix64(fp) % N, overridden
// by an explicit entry in the table. Everything keyed on a fingerprint
// lands together: graph uploads, AddGraphRevision lineage (the child is
// *pinned to its base's shard* via an override, so the delta warm path
// never crosses shards), and all request kinds, including
// kStabilityPoint, whose next_graph is co-resident exactly when it was
// registered as a revision of the request graph. The table is immutable
// and swapped atomically, so routing is deterministic at any thread
// count: the same (upload trace, routing epoch) pair answers the same
// shard everywhere.
//
// Routing table protocol. The table holds only overrides: fingerprints
// routed off their hash shard. AddGraphRevision is the one writer while
// the engine serves: it copies the current table, pins the child to its
// base's shard, bumps the epoch and swaps the copy in, serialized with
// other revision uploads on routing_mu_. The pin lands *before* the
// child is interned on that shard, so a racing request on the child
// either routes to the family's shard or NotFounds on its hash shard —
// it never scores on a shard the family does not live on. Readers load
// the table once per request (once per batch for ExecuteBatch/Submit)
// and share no mutex with each other or with the writer.
//
// Boot: construction restores each shard from its own snapshot
// subdirectory, then self-heals the routing table — any fingerprint
// found resident off its hash shard (a revision pinned to its base's
// shard before the restart) gets an override pointing at the shard that
// holds it, so pinned revisions stay warm across restarts (hash owner
// wins when two shards hold a copy; otherwise the lowest shard index).

#ifndef NETBONE_SERVICE_SHARDED_ENGINE_H_
#define NETBONE_SERVICE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "service/engine.h"

namespace netbone {

/// Options for ShardedBackboneEngine.
struct ShardedBackboneEngineOptions {
  /// Number of engine shards (clamped to >= 1). 1 behaves exactly like a
  /// bare BackboneEngine behind the router.
  int num_shards = 1;

  /// Template for every shard. The byte budgets (cache_byte_budget,
  /// graph_byte_budget) and the thread count are *global* figures, split
  /// evenly across shards by the constructor; snapshot_dir is the root
  /// under which each shard gets its own "shard<i>" subdirectory.
  /// Everything else applies to each shard verbatim.
  BackboneEngineOptions engine;
};

/// N BackboneEngine shards behind a fingerprint router. Mirrors the
/// BackboneEngine request API; safe for concurrent use from any number
/// of threads.
class ShardedBackboneEngine {
 public:
  using Options = ShardedBackboneEngineOptions;

  struct Stats {
    /// Decoded from the merge of the shards' metrics snapshots, so each
    /// field (the nested store/cache stats included) is the sum of
    /// `shards` by construction.
    BackboneEngine::Stats total;
    /// Each shard's Stats, decoded from the one snapshot of that shard
    /// the rollup merged.
    std::vector<BackboneEngine::Stats> shards;

    int64_t routing_epoch = 0;      ///< bumped by every table swap
    int64_t routing_overrides = 0;  ///< fingerprints routed off-hash
  };

  explicit ShardedBackboneEngine(const Options& options = {});

  ShardedBackboneEngine(const ShardedBackboneEngine&) = delete;
  ShardedBackboneEngine& operator=(const ShardedBackboneEngine&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The shard currently routing `fingerprint` — a pure function of the
  /// fingerprint and the current routing table.
  int ShardOf(uint64_t fingerprint) const;

  /// The current routing epoch (0 at a fresh boot; every table swap —
  /// revision pinning, boot self-heal — bumps it).
  uint64_t RoutingEpoch() const;

  /// Interns on the fingerprint's shard; returns the fingerprint.
  uint64_t AddGraph(Graph graph);

  /// Interns on the *base's* shard and pins the child there with a
  /// routing override (epoch bump) when its hash shard differs — the
  /// co-location that keeps lineage families, and therefore the delta
  /// warm path, on one shard.
  uint64_t AddGraphRevision(Graph graph, uint64_t base_fingerprint);

  /// The resident graph on the fingerprint's shard, or nullptr.
  std::shared_ptr<const Graph> FindGraph(uint64_t fingerprint) const;

  /// Routes to the request graph's shard and executes there.
  Result<BackboneResponse> Execute(const BackboneRequest& request);

  /// Partitions the batch by shard, executes each sub-batch on its
  /// shard, and scatters the results back into request order. Responses
  /// are bit-identical to executing the batch on a 1-shard engine.
  std::vector<Result<BackboneResponse>> ExecuteBatch(
      std::span<const BackboneRequest> requests);

  /// Routes the batch like ExecuteBatch. A batch touching one shard (the
  /// common case under fingerprint-skewed traffic) forwards to that
  /// shard's dispatcher directly; a multi-shard batch fans out one
  /// sub-batch per shard and gathers on the returned future's get().
  std::future<std::vector<Result<BackboneResponse>>> Submit(
      std::vector<BackboneRequest> requests);

  /// Forwards to every shard.
  void ClearNegativeCache();

  /// Snapshots every shard into its own subdirectory; first failure wins
  /// (remaining shards still attempt).
  Status WriteSnapshotNow();

  /// Rollup + per-shard stats + router gauges, a typed view
  /// decoded from the same snapshots Metrics() reports.
  Stats stats() const;

  /// The metric names stats() decodes the router fields from. The rollup
  /// and per-shard fields read BackboneEngine::StatsMetricNames().
  static std::vector<std::string> StatsMetricNames();

  /// The shards' metrics three ways in one snapshot: the unprefixed
  /// rollup (same-name metrics merged across shards), each shard again
  /// under "shard<i>.", and the router's own "sharded." gauges.
  obs::MetricsSnapshot Metrics() const;

  /// Direct shard access for tests and diagnostics.
  BackboneEngine& shard(int index) { return *shards_[static_cast<size_t>(index)]; }
  const BackboneEngine& shard(int index) const {
    return *shards_[static_cast<size_t>(index)];
  }

 private:
  /// Immutable routing state, swapped wholesale: readers load the
  /// current table and never observe a partial edit.
  struct RoutingTable {
    uint64_t epoch = 0;
    std::unordered_map<uint64_t, int> overrides;  // fingerprint -> shard
  };

  std::shared_ptr<const RoutingTable> Table() const {
    return routing_.load(std::memory_order_acquire);
  }
  /// Routing under a specific table (the pure function).
  int RouteWith(const RoutingTable& table, uint64_t fingerprint) const;

  /// Builds the boot-time override set from what each restored shard
  /// actually holds. Constructor only, single-threaded.
  void SelfHealRouting();

  /// Takes each shard's Metrics() once into *per_shard and returns their
  /// merge plus the router's "sharded." gauges.
  obs::MetricsSnapshot Rollup(
      std::vector<obs::MetricsSnapshot>* per_shard) const;

  std::vector<std::unique_ptr<BackboneEngine>> shards_;

  /// Readers: one atomic shared_ptr load per routed request. Writers
  /// copy, edit, bump the epoch, and store: SelfHealRouting before the
  /// engine is shared, AddGraphRevision under routing_mu_.
  std::atomic<std::shared_ptr<const RoutingTable>> routing_;
  std::mutex routing_mu_;
};

}  // namespace netbone

#endif  // NETBONE_SERVICE_SHARDED_ENGINE_H_
