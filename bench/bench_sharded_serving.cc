// Acceptance harness for sharded serving (src/service/sharded_engine.h):
// N engine shards behind a fingerprint router must answer bit-identically
// to a 1-shard deployment, scale warm throughput with shard count, and
// warm-restart every shard from its own snapshot subdirectory with ZERO
// rescores and ZERO sorts.
//
// Contract being demonstrated (and enforced — the process exits non-zero
// on any violation):
//   * phase A records a mixed trace (5 fingerprints, one a registered
//     revision, x {NC, DF, NT} x {TopShare, TopK, CoveragePoint, Sweep})
//     against a bare BackboneEngine — the 1-shard reference;
//   * phase B replays the identical upload order + trace on sharded
//     engines with 1, 2 and 4 shards: fingerprints match, every response
//     is payload-identical to the reference at every shard count, the
//     warm second pass is all cache hits with zero sorts, and the
//     revision is pinned to its base's shard (this gate is ALWAYS armed,
//     including quick mode and sanitizer builds);
//   * phase C measures warm throughput on 1 vs 4 shards with one client
//     thread per hardware thread; the >= 1.8x ratio gate arms only on
//     hosts with >= 4 hardware threads and non-sanitizer builds (the
//     ratio is still measured and logged elsewhere);
//   * phase E snapshots a 4-shard engine holding a lineage family
//     {A, A'} whose revision A' hashes to a different shard than A (so
//     its pin leaves it off its hash shard) plus an independent B, then
//     reboots on the same snapshot root: every shard restores its slice,
//     the router self-heals the override of A', and the trace over
//     {A, A', B} replays bit-identically with scores_computed == 0 and
//     SortsPerformed unchanged.
//
// Warm throughput (req/s at 1 and 4 shards, plus the ratio) lands in
// BENCH_sharded_serving.json.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "graph/builder.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "gen/erdos_renyi.h"
#include "service/engine.h"
#include "service/graph_store.h"
#include "service/sharded_engine.h"
#include "stats/descriptive.h"

namespace nb = netbone;
namespace fs = std::filesystem;
using netbone::bench::Banner;
using netbone::bench::Num;
using netbone::bench::PrintRow;

namespace {

/// Field-exact response comparison (BackboneResponse has no operator==;
/// cache_hit/degraded are provenance, not payload, so they are excluded).
bool SamePayload(const nb::BackboneResponse& a,
                 const nb::BackboneResponse& b) {
  return a.kept_edges == b.kept_edges && a.kept == b.kept &&
         a.coverage == b.coverage && a.weight_share == b.weight_share &&
         a.sweep == b.sweep && a.connect_k == b.connect_k &&
         a.stability == b.stability;
}

/// The recorded trace: every (graph, method) pair exercised through every
/// warm-servable request kind.
std::vector<nb::BackboneRequest> BuildTrace(
    const std::vector<uint64_t>& fingerprints) {
  const std::vector<nb::Method> methods = {nb::Method::kNoiseCorrected,
                                           nb::Method::kDisparityFilter,
                                           nb::Method::kNaiveThreshold};
  std::vector<nb::BackboneRequest> trace;
  for (const uint64_t fingerprint : fingerprints) {
    for (const nb::Method method : methods) {
      nb::BackboneRequest share;
      share.graph = fingerprint;
      share.method = method;
      share.kind = nb::RequestKind::kTopShare;
      share.share = 0.25;
      trace.push_back(share);

      nb::BackboneRequest topk = share;
      topk.kind = nb::RequestKind::kTopK;
      topk.k = 150;
      trace.push_back(topk);

      nb::BackboneRequest point = share;
      point.kind = nb::RequestKind::kCoveragePoint;
      point.share = 0.4;
      trace.push_back(point);

      nb::BackboneRequest sweep = share;
      sweep.kind = nb::RequestKind::kSweep;
      sweep.shares = {0.1, 0.3, 0.5, 0.8};
      trace.push_back(sweep);
    }
  }
  return trace;
}

/// Runs the trace, appending each response; false on any request failure.
/// Works against both BackboneEngine and ShardedBackboneEngine.
template <typename EngineT>
bool RunTrace(EngineT& engine, const std::vector<nb::BackboneRequest>& trace,
              std::vector<nb::BackboneResponse>* out) {
  bool ok = true;
  for (const nb::BackboneRequest& request : trace) {
    auto response = engine.Execute(request);
    if (!response.ok()) {
      std::printf("  request failed: %s\n",
                  response.status().message().c_str());
      ok = false;
      out->emplace_back();
      continue;
    }
    out->push_back(*std::move(response));
  }
  return ok;
}

/// A noisy re-observation: moves one unit of weight between `transfers`
/// random edge pairs. Totals are bitwise preserved, so the NC delta warm
/// path stays applicable.
nb::Graph TransferWeight(const nb::Graph& base, int64_t transfers,
                         uint64_t seed) {
  std::vector<nb::Edge> edges(base.edges().begin(), base.edges().end());
  nb::Rng rng(seed);
  for (int64_t t = 0; t < transfers; ++t) {
    const size_t a = static_cast<size_t>(rng.NextBounded(edges.size()));
    const size_t b = static_cast<size_t>(rng.NextBounded(edges.size()));
    if (a == b || edges[a].weight < 2.0) continue;
    edges[a].weight -= 1.0;
    edges[b].weight += 1.0;
  }
  nb::GraphBuilder builder(base.directedness());
  builder.ReserveNodes(base.num_nodes());
  for (const nb::Edge& e : edges) builder.AddEdge(e.src, e.dst, e.weight);
  return *builder.Build();
}

nb::Graph IntWeightEr(int num_nodes, uint64_t seed) {
  const auto er = nb::GenerateErdosRenyi(
      {.num_nodes = num_nodes, .average_degree = 3.0, .seed = seed});
  // Integer-ish weights >= 1 so TransferWeight has room to move units.
  nb::GraphBuilder builder(nb::Directedness::kUndirected);
  builder.ReserveNodes(num_nodes);
  for (const nb::Edge& e : er->edges()) {
    builder.AddEdge(e.src, e.dst, std::floor(e.weight * 3.0) + 2.0);
  }
  return *builder.Build();
}

/// Warm req/s with one client thread per `threads`, each replaying the
/// trace round-robin from a private offset. Every request is a cache hit,
/// so this isolates router + shard lookup + response copy.
double MeasureWarmThroughput(nb::ShardedBackboneEngine& engine,
                             const std::vector<nb::BackboneRequest>& trace,
                             int threads, int iterations) {
  std::vector<std::thread> clients;
  nb::Timer timer;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&engine, &trace, t, iterations]() {
      const size_t n = trace.size();
      size_t at = (static_cast<size_t>(t) * 7) % n;
      for (int i = 0; i < iterations; ++i) {
        (void)engine.Execute(trace[at]);
        at = (at + 1) % n;
      }
    });
  }
  for (std::thread& c : clients) c.join();
  const double seconds = timer.ElapsedSeconds();
  return static_cast<double>(threads) * iterations / seconds;
}

}  // namespace

int main() {
  Banner("sharded serving",
         "N-shard fingerprint routing: bit-identical responses, warm "
         "scaling, per-shard warm restart");
  const bool quick = netbone::bench::QuickMode();
  netbone::bench::JsonBenchLog json("sharded_serving");
  bool ok = true;

  const fs::path root = fs::temp_directory_path() / "netbone_sharded_bench";
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root);

  // Four base graphs plus one registered revision of the first — the
  // revision exercises pinned routing and the delta warm path.
  const int base_nodes = quick ? 300 : 1200;
  std::vector<nb::Graph> graphs;
  for (int i = 0; i < 4; ++i) {
    graphs.push_back(
        IntWeightEr(base_nodes + 150 * i, 400u + static_cast<uint64_t>(i)));
  }
  const nb::Graph revision = TransferWeight(graphs[0], 6, 7);

  // ---- Phase A: 1-shard reference (a bare BackboneEngine). ------------
  std::vector<uint64_t> fingerprints;
  std::vector<nb::BackboneRequest> trace;
  std::vector<nb::BackboneResponse> reference;
  {
    nb::BackboneEngine engine;
    for (const nb::Graph& graph : graphs) {
      fingerprints.push_back(engine.AddGraph(graph));
    }
    fingerprints.push_back(engine.AddGraphRevision(revision, fingerprints[0]));
    trace = BuildTrace(fingerprints);
    if (!RunTrace(engine, trace, &reference)) ok = false;
    std::printf("phase A: %zu requests recorded, %lld scores computed\n",
                trace.size(),
                static_cast<long long>(engine.stats().scores_computed));
  }

  // ---- Phase B: bit-identity at every shard count (always armed). -----
  PrintRow({"\nphase B shards", "mismatch", "warm miss", "overrides",
            "pinned"});
  for (const int shards : {1, 2, 4}) {
    nb::ShardedBackboneEngineOptions options;
    options.num_shards = shards;
    nb::ShardedBackboneEngine engine(options);
    std::vector<uint64_t> fps;
    for (const nb::Graph& graph : graphs) fps.push_back(engine.AddGraph(graph));
    fps.push_back(engine.AddGraphRevision(revision, fps[0]));
    if (fps != fingerprints) {
      std::printf("shards=%d: fingerprints diverge from reference\n", shards);
      ok = false;
      continue;
    }
    const bool pinned = engine.ShardOf(fps[4]) == engine.ShardOf(fps[0]);
    if (!pinned) ok = false;

    std::vector<nb::BackboneResponse> cold;
    if (!RunTrace(engine, trace, &cold)) ok = false;
    size_t mismatches = 0;
    for (size_t i = 0; i < cold.size(); ++i) {
      if (!SamePayload(cold[i], reference[i])) ++mismatches;
    }

    // Warm second pass: all hits, zero new sorts, still identical.
    const int64_t sorts_before = nb::ScoreOrder::SortsPerformed();
    std::vector<nb::BackboneResponse> warm;
    if (!RunTrace(engine, trace, &warm)) ok = false;
    size_t warm_misses = 0;
    for (size_t i = 0; i < warm.size(); ++i) {
      if (!SamePayload(warm[i], reference[i])) ++mismatches;
      if (!warm[i].cache_hit) ++warm_misses;
    }
    if (nb::ScoreOrder::SortsPerformed() != sorts_before) {
      std::printf("shards=%d: warm replay performed sorts (want 0)\n", shards);
      ok = false;
    }
    if (mismatches != 0 || warm_misses != 0) ok = false;
    PrintRow({std::to_string(shards), std::to_string(mismatches),
              std::to_string(warm_misses),
              std::to_string(engine.stats().routing_overrides),
              pinned ? "yes" : "NO"});
  }

  // ---- Phase C: warm throughput, 1 vs 4 shards. -----------------------
  {
    const unsigned hw = std::thread::hardware_concurrency();
    const int threads = static_cast<int>(std::clamp(hw, 1u, 8u));
    const int iterations = quick ? 200 : 2000;
    const int reps = quick ? 3 : 5;
    std::vector<double> rates_1, rates_4;
    for (const int shards : {1, 4}) {
      nb::ShardedBackboneEngineOptions options;
      options.num_shards = shards;
      nb::ShardedBackboneEngine engine(options);
      std::vector<uint64_t> fps;
      for (const nb::Graph& graph : graphs) {
        fps.push_back(engine.AddGraph(graph));
      }
      fps.push_back(engine.AddGraphRevision(revision, fps[0]));
      std::vector<nb::BackboneResponse> warmup;
      RunTrace(engine, trace, &warmup);  // everything cached from here on
      std::vector<double>& rates = shards == 1 ? rates_1 : rates_4;
      for (int rep = 0; rep < reps; ++rep) {
        rates.push_back(
            MeasureWarmThroughput(engine, trace, threads, iterations));
      }
    }
    const double median_1 = nb::Median(rates_1);
    const double median_4 = nb::Median(rates_4);
    const double ratio = median_4 / median_1;
    PrintRow({"\nphase C", "threads", "1-shard/s", "4-shard/s", "ratio"});
    PrintRow({"", std::to_string(threads), Num(median_1, 0), Num(median_4, 0),
              Num(ratio, 2)});
    json.RecordSeconds("warm_1shard", static_cast<int64_t>(trace.size()),
                       threads, 1.0 / median_1, 1.0 / median_1);
    json.RecordSeconds("warm_4shard", static_cast<int64_t>(trace.size()),
                       threads, 1.0 / median_4, 1.0 / median_4);
    json.Record("scaling_ratio_x100", 4, threads, ratio * 100.0,
                ratio * 100.0);
    const bool gate_armed = hw >= 4 && !netbone::bench::SanitizerBuild();
    if (!gate_armed) {
      std::printf("scaling gate skipped (%u hw threads%s)\n", hw,
                  netbone::bench::SanitizerBuild() ? ", sanitizer build" : "");
    } else if (ratio < 1.8) {
      std::printf("warm scaling 1->4 shards %.2fx (want >= 1.8x)\n", ratio);
      ok = false;
    }
  }

  // ---- Phase E setup: a revision pinned off its hash shard (4 shards).
  // Layout: a lineage family {A, A'} whose revision A' hashes to another
  // shard than A (found by deterministic seed search), so the pin of A'
  // is the state boot self-heal must restore, plus an independent B on
  // A's shard. The engine snapshots into `root`, which phase E reboots.
  int home_shard = -1;
  std::vector<uint64_t> drill_fps;
  std::vector<nb::BackboneRequest> drill_trace;
  std::vector<nb::BackboneResponse> drill_reference;
  {
    nb::ShardedBackboneEngineOptions options;
    options.num_shards = 4;
    options.engine.snapshot_dir = root.string();
    options.engine.snapshot_on_shutdown = false;
    nb::ShardedBackboneEngine engine(options);

    const int drill_nodes = quick ? 250 : 800;
    const nb::Graph graph_a = IntWeightEr(drill_nodes, 900);
    const uint64_t fp_a_hash = nb::GraphFingerprint(graph_a);
    home_shard = engine.ShardOf(fp_a_hash);
    nb::Graph graph_b;
    for (uint64_t seed = 901;; ++seed) {
      graph_b = IntWeightEr(drill_nodes + 37, seed);
      if (engine.ShardOf(nb::GraphFingerprint(graph_b)) == home_shard &&
          nb::GraphFingerprint(graph_b) != fp_a_hash) {
        break;
      }
    }
    nb::Graph revision;
    for (uint64_t seed = 11;; ++seed) {
      revision = TransferWeight(graph_a, 5, seed);
      const uint64_t fp = nb::GraphFingerprint(revision);
      if (fp != fp_a_hash && engine.ShardOf(fp) != home_shard) break;
    }
    const uint64_t fp_a = engine.AddGraph(graph_a);
    const uint64_t fp_rev = engine.AddGraphRevision(revision, fp_a);
    const uint64_t fp_b = engine.AddGraph(graph_b);
    drill_fps = {fp_a, fp_rev, fp_b};
    drill_trace = BuildTrace(drill_fps);
    if (!RunTrace(engine, drill_trace, &drill_reference)) ok = false;

    const nb::Status wrote = engine.WriteSnapshotNow();
    if (!wrote.ok()) {
      std::printf("sharded snapshot failed: %s\n", wrote.message().c_str());
      ok = false;
    }
  }

  // ---- Phase E: per-shard warm restart + router self-heal. ------------
  {
    nb::ShardedBackboneEngineOptions options;
    options.num_shards = 4;
    options.engine.snapshot_dir = root.string();
    options.engine.snapshot_on_shutdown = false;
    nb::Timer boot;
    nb::ShardedBackboneEngine engine(options);
    const double boot_seconds = boot.ElapsedSeconds();
    const auto stats = engine.stats();
    if (stats.total.restored_entries <= 0 || stats.total.restored_graphs <= 0) {
      std::printf("sharded restore salvaged nothing\n");
      ok = false;
    }
    if (stats.total.quarantined_sections != 0) {
      std::printf("clean sharded snapshot quarantined %lld sections\n",
                  static_cast<long long>(stats.total.quarantined_sections));
      ok = false;
    }
    // Self-heal: the pinned revision must still route to the shard that
    // holds it, not back to its hash shard.
    if (engine.ShardOf(drill_fps[0]) != home_shard ||
        engine.ShardOf(drill_fps[1]) != home_shard) {
      std::printf("self-heal lost the revision pin (A->%d A'->%d, want %d)\n",
                  engine.ShardOf(drill_fps[0]), engine.ShardOf(drill_fps[1]),
                  home_shard);
      ok = false;
    }

    const int64_t sorts_before = nb::ScoreOrder::SortsPerformed();
    std::vector<nb::BackboneResponse> replay;
    if (!RunTrace(engine, drill_trace, &replay)) ok = false;
    size_t mismatches = 0, misses = 0;
    for (size_t i = 0; i < replay.size(); ++i) {
      if (!SamePayload(replay[i], drill_reference[i])) ++mismatches;
      if (!replay[i].cache_hit) ++misses;
    }
    if (engine.stats().total.scores_computed != 0) {
      std::printf("sharded warm restart recomputed %lld scores (want 0)\n",
                  static_cast<long long>(engine.stats().total.scores_computed));
      ok = false;
    }
    if (nb::ScoreOrder::SortsPerformed() != sorts_before) {
      std::printf("sharded warm restart performed sorts (want 0)\n");
      ok = false;
    }
    if (mismatches != 0 || misses != 0) {
      std::printf("sharded warm replay: %zu mismatched, %zu misses\n",
                  mismatches, misses);
      ok = false;
    }
    PrintRow({"\nphase E", "entries", "graphs", "boot ms", "identical"});
    PrintRow({"", std::to_string(stats.total.restored_entries),
              std::to_string(stats.total.restored_graphs),
              Num(boot_seconds * 1e3, 2), mismatches == 0 ? "yes" : "NO"});
    json.RecordSeconds("sharded_warm_boot", stats.total.restored_entries, 4,
                       boot_seconds, boot_seconds);
  }

  fs::remove_all(root, ec);
  std::printf("\nsharded-serving gates (identity at 1/2/4 shards, lineage "
              "co-location, per-shard warm restart): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
