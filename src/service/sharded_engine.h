// Copyright 2026 The netbone Authors.
//
// N-shard serving: a ShardedBackboneEngine owns N independent
// BackboneEngines and routes every request to exactly one of them by
// graph fingerprint. Each shard is a complete engine — its own scheduler
// thread slice, its own ScoreCache / GraphStore byte budgets (the global
// budgets split N ways), its own snapshot subdirectory, its own metric
// namespace — so shards share no locks on the request path and warm
// throughput scales with shard count while every response stays
// bit-identical to a single-engine deployment (the bench gate in
// bench/bench_sharded_serving.cc).
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
// Rebalance epoch protocol. Per-fingerprint request counters feed a
// rebalancer (periodic via Options::rebalance_interval, or on demand via
// RebalanceNow) that migrates the hottest fingerprint *families* — the
// lineage-connected component, so ancestors move with their children —
// from overloaded to underloaded shards:
//
//   1. the source shard serializes the family (graph + cached scores +
//      lineage) with the snapshot section codecs (checksummed bytes);
//   2. the target shard imports it — strictly: a blob that does not
//      decode cleanly aborts the migration and the source keeps serving;
//   3. the routing table is copied, the family's overrides rewritten,
//      and the new table swapped in with a bumped epoch — readers that
//      routed under the old epoch keep valid shard references (the
//      source still holds the state);
//   4. the source retires the family one rebalance cycle *later* (the
//      grace period): any request routed just before the swap has long
//      finished, and shared_ptr handles keep in-flight artifacts alive
//      regardless. A straggler re-inserting a score into the source
//      cache post-retirement wastes bytes, never correctness — the
//      router no longer answers that shard.
//
// Boot: construction restores each shard from its own snapshot
// subdirectory, then self-heals the routing table — any fingerprint
// found resident off its hash shard (a pre-restart migration) gets an
// override pointing at the shard that holds it, so migrated state stays
// warm across restarts (hash owner wins when two shards hold a copy;
// otherwise the lowest shard index).

#ifndef NETBONE_SERVICE_SHARDED_ENGINE_H_
#define NETBONE_SERVICE_SHARDED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
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

  /// When > 0, a background thread runs a rebalance cycle roughly this
  /// often. 0 (the default) leaves rebalancing to explicit RebalanceNow
  /// calls — the deterministic mode the tests use.
  std::chrono::milliseconds rebalance_interval{0};

  /// A rebalance cycle migrates only while the hottest shard carries
  /// more than this multiple of the coldest shard's load (and only while
  /// moving the candidate family actually shrinks the gap).
  double rebalance_load_ratio = 2.0;

  /// Cap on family migrations per rebalance cycle, so one cycle never
  /// churns the whole keyspace.
  int max_migrations_per_cycle = 4;

  /// Bound on distinct fingerprints tracked by the load counters. On
  /// overflow the table resets (like the negative cache): the cost is
  /// one cold rebalance window, never unbounded memory.
  size_t max_tracked_fingerprints = 65536;
};

/// N BackboneEngine shards behind a fingerprint router with hot-shard
/// rebalance. Mirrors the BackboneEngine request API; safe for
/// concurrent use from any number of threads.
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
    int64_t migrations = 0;         ///< families moved between shards
    int64_t migration_failures = 0;  ///< aborted imports (source kept)
    int64_t rebalance_cycles = 0;   ///< RebalanceNow invocations
  };

  explicit ShardedBackboneEngine(const Options& options = {});
  ~ShardedBackboneEngine();

  ShardedBackboneEngine(const ShardedBackboneEngine&) = delete;
  ShardedBackboneEngine& operator=(const ShardedBackboneEngine&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The shard currently routing `fingerprint` — a pure function of the
  /// fingerprint and the current routing table.
  int ShardOf(uint64_t fingerprint) const;

  /// The current routing epoch (0 at a fresh boot; every table swap —
  /// revision pinning, migration, boot self-heal — bumps it).
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

  /// One rebalance cycle, synchronously: retires families migrated in
  /// the *previous* cycle (the grace period), then migrates hot families
  /// while the load ratio holds. Returns the number of families moved.
  /// Serialized with the periodic rebalancer; safe from any thread.
  int RebalanceNow();

  /// Rollup + per-shard stats + router/rebalancer counters, a typed view
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

  /// Bumps the per-fingerprint request counter (bounded table).
  void RecordLoad(uint64_t fingerprint);

  /// Builds the boot-time override set from what each restored shard
  /// actually holds. Constructor only, single-threaded.
  void SelfHealRouting();

  /// One family migration: export from `source`, import into `target`,
  /// swap the routing table, queue the source-side retirement. False
  /// when the import failed (counted; routing untouched).
  /// Precondition: rebalance_mu_ held.
  bool MigrateFamilyLocked(std::span<const uint64_t> family, int source,
                           int target);

  void RebalancerLoop();

  /// Takes each shard's Metrics() once into *per_shard and returns their
  /// merge plus the router's "sharded." gauges.
  obs::MetricsSnapshot Rollup(
      std::vector<obs::MetricsSnapshot>* per_shard) const;

  const Options options_;
  std::vector<std::unique_ptr<BackboneEngine>> shards_;

  /// Readers: one atomic shared_ptr load per routed request. Writers
  /// (revision pinning, migration, self-heal) serialize on
  /// rebalance_mu_, copy, edit, bump the epoch, and store.
  std::atomic<std::shared_ptr<const RoutingTable>> routing_;

  /// Serializes routing-table writers and whole rebalance cycles; also
  /// guards the pending retirement list and the migration counters.
  mutable std::mutex rebalance_mu_;
  /// Families whose routing already moved, awaiting retirement on their
  /// old shard at the next cycle (the grace period).
  std::vector<std::pair<int, std::vector<uint64_t>>> pending_retire_;
  int64_t migrations_ = 0;
  int64_t migration_failures_ = 0;
  int64_t rebalance_cycles_ = 0;

  /// Per-fingerprint request counts since the last reset — the
  /// rebalancer's only input, so rebalance decisions are a deterministic
  /// function of the request trace.
  mutable std::mutex load_mu_;
  std::unordered_map<uint64_t, int64_t> fingerprint_load_;

  /// Periodic rebalancer (only when rebalance_interval > 0).
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool shutdown_ = false;
  std::thread rebalancer_;
};

}  // namespace netbone

#endif  // NETBONE_SERVICE_SHARDED_ENGINE_H_
