// Tests for the one-sort threshold-sweep engine (core/sweep.h,
// eval/sweep_metrics.h): batch Coverage and stopping-index results must be
// element-wise identical to the per-point TopShare + CoverageOfMask /
// GrowUntilConnected path on directed, undirected, tied-score, and
// disconnected graphs, at every thread count; and a whole sweep must
// perform exactly one score sort per method (ScoreOrder::SortsPerformed).

#include "core/sweep.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/naive.h"
#include "core/registry.h"
#include "eval/coverage.h"
#include "eval/edge_budget.h"
#include "eval/stability.h"
#include "eval/sweep_metrics.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/components.h"
#include "graph/temporal.h"

namespace netbone {
namespace {

std::vector<double> FiftyShares() {
  std::vector<double> shares;
  for (int p = 1; p <= 50; ++p) {
    shares.push_back(static_cast<double>(p) / 50.0);
  }
  return shares;
}

Graph MakeWeightedPath() {
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 2.0);
  builder.AddEdge(2, 3, 3.0);
  builder.AddEdge(3, 4, 4.0);
  builder.AddEdge(4, 5, 5.0);
  return *builder.Build();
}

Graph MakeTiedScores() {
  // All weights equal: every score ties, so ordering falls through to the
  // id tie-break — the case where a sloppy comparator would diverge.
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 2.0);
  builder.AddEdge(1, 2, 2.0);
  builder.AddEdge(2, 3, 2.0);
  builder.AddEdge(3, 4, 2.0);
  builder.AddEdge(0, 4, 2.0);
  return *builder.Build();
}

Graph MakeDisconnected() {
  // Two components plus an isolate: GrowUntilConnected can never cover
  // the target in one component, so it must keep every edge.
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 5.0);
  builder.AddEdge(1, 2, 4.0);
  builder.AddEdge(3, 4, 3.0);
  builder.AddEdge(4, 5, 2.0);
  builder.ReserveNodes(7);  // node 6 is an isolate
  return *builder.Build();
}

Graph MakeDirected() {
  return *GenerateErdosRenyi({.num_nodes = 120,
                              .average_degree = 4.0,
                              .directedness = Directedness::kDirected,
                              .seed = 11});
}

Graph MakeUndirected() {
  return *GenerateErdosRenyi({.num_nodes = 120,
                              .average_degree = 4.0,
                              .directedness = Directedness::kUndirected,
                              .seed = 13});
}

// ---------------------------------------------------------------------------
// ScoreOrder basics.
// ---------------------------------------------------------------------------

TEST(ScoreOrderTest, PrefixMaskMatchesTopK) {
  const Graph g = MakeWeightedPath();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  for (int64_t k = -1; k <= g.num_edges() + 2; ++k) {
    const BackboneMask batch = order.PrefixMask(k);
    const BackboneMask single = TopK(*nt, k);
    EXPECT_EQ(batch.keep, single.keep) << "k=" << k;
    EXPECT_EQ(batch.kept, single.kept) << "k=" << k;
  }
}

TEST(ScoreOrderTest, TopShareOverloadMatchesPerPoint) {
  for (const Graph& g : {MakeWeightedPath(), MakeTiedScores(),
                         MakeDisconnected(), MakeDirected()}) {
    const auto nt = NaiveThreshold(g);
    ASSERT_TRUE(nt.ok());
    const ScoreOrder order(*nt);
    for (const double share : FiftyShares()) {
      const BackboneMask batch = TopShare(order, share);
      const BackboneMask single = TopShare(*nt, share);
      EXPECT_EQ(batch.keep, single.keep) << "share=" << share;
      EXPECT_EQ(batch.kept, single.kept) << "share=" << share;
    }
  }
}

TEST(ScoreOrderTest, OrderIsDescendingWithDeterministicTieBreak) {
  const Graph g = MakeTiedScores();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  ASSERT_EQ(order.size(), g.num_edges());
  for (int64_t rank = 0; rank + 1 < order.size(); ++rank) {
    const EdgeId a = order.id_at(rank);
    const EdgeId b = order.id_at(rank + 1);
    const double sa = nt->at(a).score;
    const double sb = nt->at(b).score;
    EXPECT_GE(sa, sb);
    if (sa == sb && g.edge(a).weight == g.edge(b).weight) {
      EXPECT_LT(a, b);  // ties break toward the lower edge id
    }
  }
}

TEST(ScoreOrderTest, CountAboveMatchesLinearScan) {
  const Graph g = MakeDirected();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  for (const double threshold : {-1.0, 0.0, 0.5, 1.0, 2.5, 100.0}) {
    EXPECT_EQ(CountAboveScore(order, threshold),
              CountAboveScore(*nt, threshold))
        << "threshold=" << threshold;
  }
}

TEST(ScoreOrderTest, KForShareMatchesTopShareRounding) {
  const Graph g = MakeWeightedPath();  // 5 edges
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  EXPECT_EQ(order.KForShare(0.0), 0);
  EXPECT_EQ(order.KForShare(0.4), 2);
  EXPECT_EQ(order.KForShare(0.5), 3);  // llround(2.5) = 3
  EXPECT_EQ(order.KForShare(1.0), 5);
  EXPECT_EQ(order.KForShare(-2.0), 0);  // clamped
  EXPECT_EQ(order.KForShare(7.0), 5);   // clamped
}

// ---------------------------------------------------------------------------
// The key sort: element-for-element the comparator sort.
// ---------------------------------------------------------------------------

/// A path over `num_edges` edges (edge id i joins nodes i and i + 1) whose
/// weights cycle through `weights`.
Graph MakePath(int64_t num_edges, const std::vector<double>& weights) {
  GraphBuilder builder(Directedness::kUndirected);
  for (int64_t i = 0; i < num_edges; ++i) {
    builder.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                    weights[static_cast<size_t>(i) % weights.size()]);
  }
  return *builder.Build();
}

/// The reference: std::sort with the (score desc, weight desc, id asc)
/// comparator, the order ScoreOrder has always produced.
std::vector<EdgeId> ComparatorOrder(const ScoredEdges& scored) {
  std::vector<EdgeId> ids(static_cast<size_t>(scored.size()));
  std::iota(ids.begin(), ids.end(), EdgeId{0});
  std::sort(ids.begin(), ids.end(), [&](EdgeId a, EdgeId b) {
    const double sa = scored.at(a).score;
    const double sb = scored.at(b).score;
    if (sa != sb) return sa > sb;
    const double wa = scored.graph().edge(a).weight;
    const double wb = scored.graph().edge(b).weight;
    if (wa != wb) return wa > wb;
    return a < b;
  });
  return ids;
}

/// Scores `graph` with `score_at(id)` and checks ScoreOrder against the
/// comparator sort, and FromPermutation's acceptance of the result.
template <typename ScoreAt>
void ExpectKeySortMatchesComparator(const Graph& graph,
                                    const ScoreAt& score_at) {
  std::vector<EdgeScore> scores(static_cast<size_t>(graph.num_edges()));
  for (size_t id = 0; id < scores.size(); ++id) {
    scores[id].score = score_at(id);
  }
  const ScoredEdges scored(&graph, "test", std::move(scores), false);
  const ScoreOrder order(scored);
  const std::vector<EdgeId> expected = ComparatorOrder(scored);
  ASSERT_EQ(order.size(), static_cast<int64_t>(expected.size()));
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         order.ids().begin()))
      << "edges=" << graph.num_edges();
  const Result<ScoreOrder> adopted = ScoreOrder::FromPermutation(
      scored, std::vector<EdgeId>(order.ids().begin(), order.ids().end()));
  EXPECT_TRUE(adopted.ok()) << "edges=" << graph.num_edges();
}

/// Sizes on both sides of the key sort's insertion-sort cutoff, and large
/// enough for several radix levels.
std::vector<int64_t> KeySortSizes() {
  return {1, 2, 3, 63, 64, 65, 257, 5000, 70000};
}

TEST(KeySortTest, SignedZerosTieAndFallThroughToWeight) {
  for (const int64_t n : KeySortSizes()) {
    const Graph g = MakePath(n, {1.0, 3.0, 2.0});
    ExpectKeySortMatchesComparator(g, [](size_t id) {
      return id % 3 == 0 ? 0.5 : (id % 2 == 0 ? -0.0 : 0.0);
    });
  }
}

TEST(KeySortTest, AllEqualScores) {
  for (const int64_t n : KeySortSizes()) {
    const Graph mixed = MakePath(n, {2.0, 5.0, 1.0, 5.0});
    ExpectKeySortMatchesComparator(mixed, [](size_t) { return 0.25; });
    // Equal scores and equal weights: the id alone decides.
    const Graph flat = MakePath(n, {2.0});
    ExpectKeySortMatchesComparator(flat, [](size_t) { return -7.0; });
  }
}

TEST(KeySortTest, ExtremeAndNegativeScores) {
  const double kMax = std::numeric_limits<double>::max();
  const double kDenorm = std::numeric_limits<double>::denorm_min();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      kDenorm, -kDenorm, 4 * kDenorm, kMax, -kMax, kInf, -kInf,
      std::numeric_limits<double>::min(), -1.5, 0.0, -0.0, 1.0,
      1e-300, -1e300, -1.5, kMax, kDenorm};
  for (const int64_t n : KeySortSizes()) {
    const Graph g = MakePath(n, {1.0, 2.0});
    ExpectKeySortMatchesComparator(g, [&](size_t id) {
      return values[(id * 7) % values.size()];
    });
  }
}

TEST(KeySortTest, RandomScoresWithQuantizedTies) {
  for (const int64_t n : KeySortSizes()) {
    const Graph g = MakePath(n, {1.0, 2.0, 3.0, 4.0});
    Rng rng(static_cast<uint64_t>(n));
    std::vector<double> values(static_cast<size_t>(n));
    for (double& value : values) {
      value = rng.Uniform(-1.0, 1.0);
      // A quarter of the scores land on a coarse grid, so ties recur.
      if (rng.NextBounded(4) == 0) value = std::round(value * 8.0) / 8.0;
    }
    ExpectKeySortMatchesComparator(g,
                                   [&](size_t id) { return values[id]; });
  }
}

TEST(KeySortTest, PatchWithMostEdgesDirtyEqualsFullSort) {
  const Graph g = MakePath(20000, {1.0, 2.0, 3.0});
  Rng rng(5);
  std::vector<EdgeScore> base_scores(static_cast<size_t>(g.num_edges()));
  for (EdgeScore& s : base_scores) {
    s.score = std::round(rng.Uniform(0.0, 1.0) * 512.0) / 512.0;
  }
  const ScoredEdges base(&g, "test", base_scores, false);
  const ScoreOrder base_order(base);

  // Rescore ~60% of the edges (ascending dirty ids); the rest keep their
  // bits, as the delta path guarantees.
  std::vector<EdgeScore> next_scores = base_scores;
  std::vector<EdgeId> dirty;
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    if (rng.NextBounded(10) < 6) {
      next_scores[static_cast<size_t>(id)].score =
          std::round(rng.Uniform(-0.5, 1.0) * 512.0) / 512.0;
      dirty.push_back(id);
    }
  }
  ASSERT_GE(static_cast<double>(dirty.size()),
            0.5 * static_cast<double>(g.num_edges()));
  const ScoredEdges next(&g, "test", std::move(next_scores), false);

  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  const ScoreOrder patched(next, base_order, {}, dirty);
  EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before);  // not a sort
  const ScoreOrder full(next);
  EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before + 1);
  EXPECT_TRUE(std::equal(full.ids().begin(), full.ids().end(),
                         patched.ids().begin()));
  const std::vector<EdgeId> expected = ComparatorOrder(next);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         patched.ids().begin()));
}

/// A real delta nudges most rescored edges only a few ranks: the patch
/// collects them nearly sorted and places each near its old slot. Tied
/// scores (a coarse grid) with cycling weights make the comparator's
/// fall-through decide many placements; sparse and dense deltas, some
/// scores unchanged, must all equal the comparator sort.
TEST(KeySortTest, PatchWithSmallMovesEqualsFullSort) {
  const Graph g = MakePath(20000, {1.0, 2.0, 3.0});
  for (const uint64_t dirty_in_16 : {1u, 10u}) {
    Rng rng(11 + dirty_in_16);
    std::vector<EdgeScore> base_scores(static_cast<size_t>(g.num_edges()));
    for (EdgeScore& s : base_scores) {
      s.score = std::round(rng.Uniform(0.0, 1.0) * 64.0) / 64.0;
    }
    const ScoredEdges base(&g, "test", base_scores, false);
    const ScoreOrder base_order(base);

    std::vector<EdgeScore> next_scores = base_scores;
    std::vector<EdgeId> dirty;
    for (EdgeId id = 0; id < g.num_edges(); ++id) {
      if (rng.NextBounded(16) < dirty_in_16) {
        const double step =
            static_cast<double>(rng.NextBounded(5)) - 2.0;  // -2..2
        next_scores[static_cast<size_t>(id)].score += step / 64.0;
        dirty.push_back(id);
      }
    }
    const ScoredEdges next(&g, "test", std::move(next_scores), false);
    const int64_t sorts_before = ScoreOrder::SortsPerformed();
    const ScoreOrder patched(next, base_order, {}, dirty);
    EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before);  // not a sort
    const std::vector<EdgeId> expected = ComparatorOrder(next);
    ASSERT_EQ(patched.size(), static_cast<int64_t>(expected.size()));
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           patched.ids().begin()))
        << "dirty share " << dirty_in_16 << "/16";
  }
}

// ---------------------------------------------------------------------------
// The one-sort contract.
// ---------------------------------------------------------------------------

TEST(SweepEngineTest, FiftyPointSweepSortsExactlyOncePerMethod) {
  const Graph g = MakeUndirected();
  const std::vector<double> shares = FiftyShares();
  const std::vector<Method> methods = {Method::kNaiveThreshold,
                                       Method::kDisparityFilter,
                                       Method::kNoiseCorrected};
  std::vector<Result<ScoredEdges>> scored;
  for (const Method m : methods) scored.push_back(RunMethod(m, g));

  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  for (const auto& table : scored) {
    ASSERT_TRUE(table.ok());
    const ScoreOrder order(*table);
    const auto coverage = CoverageSweep(order, shares);
    ASSERT_TRUE(coverage.ok());
    EXPECT_EQ(coverage->size(), shares.size());
  }
  EXPECT_EQ(ScoreOrder::SortsPerformed() - sorts_before,
            static_cast<int64_t>(methods.size()));
}

TEST(SweepEngineTest, PerPointPathSortsOncePerPoint) {
  // The contrast case documenting what the batch API saves.
  const Graph g = MakeWeightedPath();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  for (const double share : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    TopShare(*nt, share);
  }
  EXPECT_EQ(ScoreOrder::SortsPerformed() - sorts_before, 5);
}

// ---------------------------------------------------------------------------
// Batch Coverage vs per-point, across graph shapes and thread counts.
// ---------------------------------------------------------------------------

void ExpectBatchCoverageMatchesPerPoint(const Graph& g) {
  const std::vector<double> shares = FiftyShares();
  const std::vector<Method> methods = {Method::kNaiveThreshold,
                                       Method::kDisparityFilter,
                                       Method::kNoiseCorrected};
  for (const int threads : {1, 2, 8}) {
    RunMethodOptions options;
    options.num_threads = threads;
    const auto sweeps = CoverageSweepByMethod(g, methods, shares, options);
    ASSERT_EQ(sweeps.size(), methods.size());
    for (size_t i = 0; i < methods.size(); ++i) {
      const auto scored = RunMethod(methods[i], g, options);
      ASSERT_TRUE(scored.ok()) << MethodName(methods[i]);
      ASSERT_TRUE(sweeps[i].status.ok()) << MethodName(methods[i]);
      ASSERT_EQ(sweeps[i].coverage.size(), shares.size());
      for (size_t s = 0; s < shares.size(); ++s) {
        const auto per_point =
            CoverageOfMask(g, TopShare(*scored, shares[s]));
        ASSERT_TRUE(per_point.ok());
        // Element-wise identical, not just close: both paths divide the
        // same two integers.
        EXPECT_EQ(sweeps[i].coverage[s], *per_point)
            << MethodName(methods[i]) << " share " << shares[s]
            << " threads " << threads;
      }
    }
  }
}

TEST(SweepEngineTest, CoverageMatchesPerPointUndirected) {
  ExpectBatchCoverageMatchesPerPoint(MakeUndirected());
}

TEST(SweepEngineTest, CoverageMatchesPerPointDirected) {
  ExpectBatchCoverageMatchesPerPoint(MakeDirected());
}

TEST(SweepEngineTest, CoverageMatchesPerPointTiedScores) {
  ExpectBatchCoverageMatchesPerPoint(MakeTiedScores());
}

TEST(SweepEngineTest, CoverageMatchesPerPointDisconnected) {
  ExpectBatchCoverageMatchesPerPoint(MakeDisconnected());
}

TEST(SweepEngineTest, CoverageAtShareMatchesCoverageOfMask) {
  const Graph g = MakeUndirected();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  for (const double share : {0.02, 0.1, 0.5, 1.0}) {
    const auto at_share = CoverageAtShare(order, share);
    const auto of_mask = CoverageOfMask(g, TopShare(*nt, share));
    ASSERT_TRUE(at_share.ok());
    ASSERT_TRUE(of_mask.ok());
    EXPECT_EQ(*at_share, *of_mask) << "share=" << share;
  }
}

TEST(SweepEngineTest, MethodFailureIsReportedPerMethod) {
  // DS cannot balance a directed graph where some node only sends; the
  // per-method status must carry that error while other methods succeed.
  GraphBuilder builder(Directedness::kDirected);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  builder.AddEdge(2, 1, 1.0);  // node 0 never receives
  const Graph g = *builder.Build();
  const std::vector<Method> methods = {Method::kNaiveThreshold,
                                       Method::kDoublyStochastic};
  const std::vector<double> shares = {0.5, 1.0};
  const auto sweeps = CoverageSweepByMethod(g, methods, shares);
  ASSERT_EQ(sweeps.size(), 2u);
  EXPECT_TRUE(sweeps[0].status.ok());
  EXPECT_EQ(sweeps[0].coverage.size(), shares.size());
  EXPECT_FALSE(sweeps[1].status.ok());
  EXPECT_TRUE(sweeps[1].coverage.empty());
}

// ---------------------------------------------------------------------------
// Stopping index / GrowUntilConnected.
// ---------------------------------------------------------------------------

void ExpectGrowMatchesAndProfileAgrees(const Graph& g) {
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  const BackboneMask batch = GrowUntilConnected(order);
  const BackboneMask single = GrowUntilConnected(*nt);
  EXPECT_EQ(batch.keep, single.keep);
  EXPECT_EQ(batch.kept, single.kept);
  // The profile's stopping index is the same prefix the masks keep.
  const SweepProfile profile = BuildSweepProfile(order);
  EXPECT_EQ(profile.connect_k, batch.kept);
  const BackboneMask prefix = order.PrefixMask(profile.connect_k);
  EXPECT_EQ(prefix.keep, batch.keep);
}

TEST(SweepEngineTest, GrowUntilConnectedMatchesPerPointPath) {
  ExpectGrowMatchesAndProfileAgrees(MakeWeightedPath());
}

TEST(SweepEngineTest, GrowUntilConnectedMatchesPerPointTied) {
  ExpectGrowMatchesAndProfileAgrees(MakeTiedScores());
}

TEST(SweepEngineTest, GrowUntilConnectedMatchesPerPointUndirectedEr) {
  ExpectGrowMatchesAndProfileAgrees(MakeUndirected());
}

TEST(SweepEngineTest, GrowUntilConnectedKeepsEverythingWhenDisconnected) {
  const Graph g = MakeDisconnected();
  ExpectGrowMatchesAndProfileAgrees(g);
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  const SweepProfile profile = BuildSweepProfile(order);
  EXPECT_EQ(profile.connect_k, g.num_edges());  // never connects
}

TEST(SweepEngineTest, StoppingIndexIsMinimal) {
  // A clique with a clear winner prefix: the profile index must be the
  // smallest connecting prefix, and the materialized backbone connected.
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 10.0);
  builder.AddEdge(0, 2, 9.0);
  builder.AddEdge(0, 3, 8.0);
  builder.AddEdge(1, 2, 1.0);
  builder.AddEdge(1, 3, 1.0);
  builder.AddEdge(2, 3, 1.0);
  const Graph g = *builder.Build();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  const SweepProfile profile = BuildSweepProfile(order);
  EXPECT_EQ(profile.connect_k, 3);
  const auto backbone = ApplyMask(g, order.PrefixMask(profile.connect_k));
  ASSERT_TRUE(backbone.ok());
  EXPECT_TRUE(IsConnected(*backbone));
  // One edge fewer must not connect all four nodes.
  const auto shorter = ApplyMask(g, order.PrefixMask(profile.connect_k - 1));
  ASSERT_TRUE(shorter.ok());
  EXPECT_FALSE(IsConnected(*shorter));
}

// ---------------------------------------------------------------------------
// SweepProfile invariants.
// ---------------------------------------------------------------------------

TEST(SweepProfileTest, PrefixArraysAreConsistent) {
  const Graph g = MakeUndirected();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  const SweepProfile profile = BuildSweepProfile(order);
  ASSERT_EQ(profile.covered_nodes.size(),
            static_cast<size_t>(g.num_edges()) + 1);
  ASSERT_EQ(profile.kept_weight.size(),
            static_cast<size_t>(g.num_edges()) + 1);
  EXPECT_EQ(profile.covered_nodes.front(), 0);
  EXPECT_DOUBLE_EQ(profile.kept_weight.front(), 0.0);
  double weight = 0.0;
  for (int64_t k = 0; k < g.num_edges(); ++k) {
    // Monotone coverage, each edge adds at most 2 newly-covered nodes.
    const int64_t delta = profile.covered_nodes[static_cast<size_t>(k) + 1] -
                          profile.covered_nodes[static_cast<size_t>(k)];
    EXPECT_GE(delta, 0);
    EXPECT_LE(delta, 2);
    weight += g.edge(order.id_at(k)).weight;
    EXPECT_DOUBLE_EQ(profile.kept_weight[static_cast<size_t>(k) + 1],
                     weight);
  }
  EXPECT_EQ(profile.covered_nodes.back(), profile.target_nodes);
  EXPECT_DOUBLE_EQ(profile.WeightShareAt(g.num_edges()), 1.0);
  EXPECT_DOUBLE_EQ(profile.CoverageAt(g.num_edges()), 1.0);
}

TEST(SweepProfileTest, TargetExcludesIsolates) {
  const Graph g = MakeDisconnected();  // 6 connected nodes + 1 isolate
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const SweepProfile profile = BuildSweepProfile(ScoreOrder(*nt));
  EXPECT_EQ(profile.target_nodes, 6);
}

// ---------------------------------------------------------------------------
// StabilitySweep vs per-point MeanStability.
// ---------------------------------------------------------------------------

TemporalNetwork MakeTemporal() {
  // Three snapshots with drifting weights over a fixed edge set.
  std::vector<Graph> years;
  for (int year = 0; year < 3; ++year) {
    GraphBuilder builder(Directedness::kUndirected);
    double w = 1.0;
    for (NodeId v = 0; v < 12; ++v) {
      builder.AddEdge(v, (v + 1) % 12, w + 0.3 * year);
      builder.AddEdge(v, (v + 3) % 12, 2.0 * w);
      w += 0.7;
    }
    years.push_back(*builder.Build());
  }
  return *TemporalNetwork::Create(std::move(years), "drift");
}

TEST(StabilitySweepTest, MatchesPerPointMeanStability) {
  const TemporalNetwork network = MakeTemporal();
  const std::vector<double> shares = {0.25, 0.5, 0.75, 1.0};
  for (const Method method :
       {Method::kNaiveThreshold, Method::kDisparityFilter}) {
    for (const int threads : {1, 2, 8}) {
      RunMethodOptions options;
      options.num_threads = threads;
      const auto sweep = StabilitySweep(network, method, shares, options);
      ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
      ASSERT_EQ(sweep->size(), shares.size());
      for (size_t s = 0; s < shares.size(); ++s) {
        const auto per_point = MeanStability(
            network, [&](const Graph& year) {
              Result<ScoredEdges> scored = RunMethod(method, year, options);
              if (!scored.ok()) {
                return Result<BackboneMask>(scored.status());
              }
              return Result<BackboneMask>(TopShare(*scored, shares[s]));
            });
        ASSERT_TRUE(per_point.ok());
        ASSERT_TRUE((*sweep)[s].ok());
        EXPECT_EQ(*(*sweep)[s], *per_point)
            << MethodName(method) << " share " << shares[s] << " threads "
            << threads;
      }
    }
  }
}

TEST(StabilitySweepTest, SinglePointWrapperMatchesBatch) {
  const TemporalNetwork network = MakeTemporal();
  const auto wrapper =
      MeanStability(network, Method::kNaiveThreshold, 0.5);
  ASSERT_TRUE(wrapper.ok());
  const std::vector<double> one = {0.5};
  const auto batch = StabilitySweep(network, Method::kNaiveThreshold, one);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->front().ok());
  EXPECT_EQ(*wrapper, *batch->front());
}

TEST(StabilitySweepTest, TinySharesFailPerShareNotWholesale) {
  const TemporalNetwork network = MakeTemporal();
  // share 0 keeps no edges -> Stability undefined for that share only.
  const std::vector<double> shares = {0.0, 1.0};
  const auto sweep =
      StabilitySweep(network, Method::kNaiveThreshold, shares);
  ASSERT_TRUE(sweep.ok());
  EXPECT_FALSE((*sweep)[0].ok());
  EXPECT_TRUE((*sweep)[1].ok());
}

TEST(StabilitySweepTest, NeedsTwoSnapshots) {
  std::vector<Graph> one = {MakeWeightedPath()};
  const auto network = TemporalNetwork::Create(std::move(one), "single");
  ASSERT_TRUE(network.ok());
  const std::vector<double> shares = {1.0};
  EXPECT_FALSE(
      StabilitySweep(*network, Method::kNaiveThreshold, shares).ok());
}

}  // namespace
}  // namespace netbone
