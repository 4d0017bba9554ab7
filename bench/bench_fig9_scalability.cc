// Regenerates paper Fig. 9: running time vs number of edges on
// Erdős–Rényi graphs with average degree 3 and uniform random weights.
//
// Paper shape to reproduce: NC scales near-linearly (the paper fits
// |E|^1.14 for its pandas implementation), indistinguishable in slope
// from NT and DF; MST pays an extra log factor for sorting; HSS and DS
// are orders of magnitude slower and cannot run beyond small sizes.
// Absolute times are hardware-dependent and (being compiled C++) far
// below the paper's pandas numbers; the fitted exponent is the
// comparable statistic.
//
// Beyond the paper, three netbone-specific tables: where a servable
// graph's time goes for the per-edge scorers (scoring, the one ScoreOrder
// sort, the BuildSweepProfile walk), those scorers threaded over
// 1/2/max workers (bit-identical scores, wall-clock only changes), and
// the sampled-HSS mode (k seeded sources) opening HSS on sizes where the
// exact |V|-source run is priced out.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "gen/erdos_renyi.h"
#include "stats/ols.h"

namespace nb = netbone;
using netbone::bench::Banner;
using netbone::bench::NaN;
using netbone::bench::Num;
using netbone::bench::PrintRow;

namespace {

struct Timing {
  double median = netbone::bench::NaN();
  double min = netbone::bench::NaN();
};

/// Times three runs of one method on one graph. The options are built by
/// the caller, outside the timed region, so thread-sweep numbers measure
/// scoring work only; min-of-3 is reported alongside the median because
/// the min is the better point estimate on a noisy machine.
Timing TimeMethod(nb::Method method, const nb::Graph& graph,
                  const nb::RunMethodOptions& options) {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    nb::Timer timer;
    const auto scored = nb::RunMethod(method, graph, options);
    const double elapsed = timer.ElapsedSeconds();
    if (!scored.ok()) return Timing{};
    times.push_back(elapsed);
  }
  std::sort(times.begin(), times.end());
  return Timing{times[1], times[0]};
}

double Median3(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  return times[1];
}

/// Median-of-3 seconds of the three steps that make one method's scores
/// servable: scoring, the ScoreOrder sort, and the sweep-profile walk.
struct StepTimes {
  double score = netbone::bench::NaN();
  double order = netbone::bench::NaN();
  double profile = netbone::bench::NaN();
};

StepTimes TimeSteps(nb::Method method, const nb::Graph& graph,
                    const nb::RunMethodOptions& options) {
  std::vector<double> score, order, profile;
  for (int rep = 0; rep < 3; ++rep) {
    nb::Timer score_timer;
    const auto scored = nb::RunMethod(method, graph, options);
    score.push_back(score_timer.ElapsedSeconds());
    if (!scored.ok()) return StepTimes{};
    nb::Timer order_timer;
    const nb::ScoreOrder sorted(*scored);
    order.push_back(order_timer.ElapsedSeconds());
    nb::Timer profile_timer;
    const nb::SweepProfile swept = nb::BuildSweepProfile(sorted);
    profile.push_back(profile_timer.ElapsedSeconds());
  }
  return StepTimes{Median3(score), Median3(order), Median3(profile)};
}

}  // namespace

int main() {
  Banner("Fig. 9", "running time vs |E| (ER graphs, average degree 3)");
  const bool quick = netbone::bench::QuickMode();
  netbone::bench::JsonBenchLog json("fig9");
  const int max_threads = nb::ResolveThreadCount(0);

  // Node counts; |E| = 1.5 |V|. The paper sweeps 25k..6.5M nodes.
  std::vector<nb::NodeId> sizes = {25000, 50000, 100000, 200000,
                                   400000, 800000, 1600000};
  if (quick) sizes = {25000, 50000, 100000};
  // HSS and DS get the paper treatment: capped at small sizes ("we could
  // not run them on networks larger than a few thousand edges").
  const int64_t slow_method_edge_cap = 6000;

  const std::vector<nb::Method> fast_methods = {
      nb::Method::kNoiseCorrected, nb::Method::kDisparityFilter,
      nb::Method::kNaiveThreshold, nb::Method::kMaximumSpanningTree};

  nb::RunMethodOptions serial;
  serial.num_threads = 1;

  std::vector<std::string> header = {"edges"};
  for (const nb::Method m : fast_methods) {
    header.push_back(nb::MethodTag(m) + " med");
    header.push_back("min");
  }
  PrintRow(header);

  std::vector<double> log_edges, log_nc_seconds;
  for (const nb::NodeId n : sizes) {
    const auto graph = nb::GenerateErdosRenyi(
        {.num_nodes = n, .average_degree = 3.0, .seed = 77});
    if (!graph.ok()) continue;
    std::vector<std::string> row = {std::to_string(graph->num_edges())};
    for (const nb::Method m : fast_methods) {
      const Timing t = TimeMethod(m, *graph, serial);
      row.push_back(Num(t.median, 4));
      row.push_back(Num(t.min, 4));
      json.RecordSeconds(nb::MethodTag(m), graph->num_edges(), 1, t.median,
                         t.min);
      // Normalized per-edge cost alongside the total: the statistic the
      // vectorized-kernel work (core/simd_kernels.h) moves, comparable
      // across graph sizes where totals are not.
      const double edges = static_cast<double>(graph->num_edges());
      json.Record(nb::MethodTag(m) + "/edge", graph->num_edges(), 1,
                  t.median * 1e9 / edges, t.min * 1e9 / edges);
      if (m == nb::Method::kNoiseCorrected && t.median == t.median) {
        log_edges.push_back(std::log10(
            static_cast<double>(graph->num_edges())));
        log_nc_seconds.push_back(std::log10(t.median));
      }
    }
    PrintRow(row);
  }

  // Where the time goes: a cold served graph costs, per method, scoring
  // plus the one sort plus the profile walk. The split shows which step
  // the fig9 curve is made of.
  std::printf("\nwhere time goes (median of 3, 1 thread): score, ScoreOrder, "
              "BuildSweepProfile\n");
  const std::vector<nb::Method> split_methods = {
      nb::Method::kNoiseCorrected, nb::Method::kDisparityFilter,
      nb::Method::kNaiveThreshold};
  std::vector<std::string> split_header = {"edges"};
  for (const nb::Method m : split_methods) {
    split_header.push_back(nb::MethodTag(m) + " score");
    split_header.push_back("order");
    split_header.push_back("profile");
  }
  PrintRow(split_header);
  for (const nb::NodeId n : sizes) {
    const auto graph = nb::GenerateErdosRenyi(
        {.num_nodes = n, .average_degree = 3.0, .seed = 77});
    if (!graph.ok()) continue;
    std::vector<std::string> row = {std::to_string(graph->num_edges())};
    for (const nb::Method m : split_methods) {
      const StepTimes t = TimeSteps(m, *graph, serial);
      row.push_back(Num(t.score, 4));
      row.push_back(Num(t.order, 4));
      row.push_back(Num(t.profile, 4));
      json.RecordSeconds(nb::MethodTag(m) + "/order", graph->num_edges(), 1,
                         t.order, t.order);
      json.RecordSeconds(nb::MethodTag(m) + "/profile", graph->num_edges(),
                         1, t.profile, t.profile);
    }
    PrintRow(row);
  }

  // Thread sweep: the same NC / DF scoring work over 1, 2 and max pool
  // workers. Scores are bit-identical across the sweep; only wall-clock
  // may move.
  std::printf("\nthread sweep (median/min of 3, %d hardware threads):\n",
              max_threads);
  PrintRow({"edges", "NC t=1", "min", "NC t=2", "min",
            "NC t=max", "min", "DF t=max", "min"});
  for (const nb::NodeId n : sizes) {
    const auto graph = nb::GenerateErdosRenyi(
        {.num_nodes = n, .average_degree = 3.0, .seed = 77});
    if (!graph.ok()) continue;
    std::vector<std::string> row = {std::to_string(graph->num_edges())};
    for (const int threads : {1, 2, max_threads}) {
      nb::RunMethodOptions options;
      options.num_threads = threads;
      const Timing t = TimeMethod(nb::Method::kNoiseCorrected, *graph,
                                  options);
      row.push_back(Num(t.median, 4));
      row.push_back(Num(t.min, 4));
      json.RecordSeconds("NC", graph->num_edges(), threads, t.median,
                         t.min);
    }
    nb::RunMethodOptions options;
    options.num_threads = max_threads;
    const Timing t = TimeMethod(nb::Method::kDisparityFilter, *graph,
                                options);
    row.push_back(Num(t.median, 4));
    row.push_back(Num(t.min, 4));
    json.RecordSeconds("DF", graph->num_edges(), max_threads, t.median,
                       t.min);
    PrintRow(row);
  }

  // Slow methods at small sizes only.
  std::printf("\nslow methods (size-capped, as in the paper):\n");
  PrintRow({"edges", "HSS", "DS"});
  std::vector<nb::NodeId> slow_sizes = {500, 1000, 2000, 4000};
  if (quick) slow_sizes = {500, 1000};
  for (const nb::NodeId n : slow_sizes) {
    const auto graph = nb::GenerateErdosRenyi(
        {.num_nodes = n, .average_degree = 3.0, .seed = 78});
    if (!graph.ok() || graph->num_edges() > slow_method_edge_cap) continue;
    const Timing hss =
        TimeMethod(nb::Method::kHighSalienceSkeleton, *graph, {});
    const Timing ds = TimeMethod(nb::Method::kDoublyStochastic, *graph, {});
    json.RecordSeconds("HSS", graph->num_edges(), max_threads, hss.median,
                       hss.min);
    json.RecordSeconds("DS", graph->num_edges(), max_threads, ds.median,
                       ds.min);
    PrintRow({std::to_string(graph->num_edges()), Num(hss.median, 4),
              Num(ds.median, 4)});
  }

  // Sampled HSS (k seeded sources) on sizes the exact run is priced out
  // of: the old |V|*|E| budget admitted only a few thousand edges; the
  // k*|E| sampled cost keeps growing linearly in |E|.
  std::printf("\nsampled HSS (k = 256 sources) beyond the exact-run cap:\n");
  PrintRow({"edges", "HSS k=256", "min"});
  std::vector<nb::NodeId> sampled_sizes = {10000, 40000, 160000};
  if (quick) sampled_sizes = {10000};
  for (const nb::NodeId n : sampled_sizes) {
    const auto graph = nb::GenerateErdosRenyi(
        {.num_nodes = n, .average_degree = 3.0, .seed = 79});
    if (!graph.ok()) continue;
    nb::RunMethodOptions options;
    options.hss_source_sample_size = 256;
    const Timing t = TimeMethod(nb::Method::kHighSalienceSkeleton, *graph,
                                options);
    json.RecordSeconds("HSS_k256", graph->num_edges(), max_threads,
                       t.median, t.min);
    PrintRow({std::to_string(graph->num_edges()), Num(t.median, 4),
              Num(t.min, 4)});
  }

  // Fitted scaling exponent of NC: log t = a + b log |E|.
  if (log_edges.size() >= 3) {
    nb::OlsFitter fitter;
    fitter.AddColumn("log_edges", log_edges);
    const auto fit = fitter.Fit(log_nc_seconds);
    if (fit.ok()) {
      std::printf("\nNC fitted time complexity: ~O(|E|^%.2f)\n",
                  fit->coefficients[1]);
    }
  }
  std::printf(
      "Paper reference: NC ~O(|E|^1.14), indistinguishable in slope from\n"
      "NT and DF; 20M edges in 82 s in pandas on a 2.3 GHz Xeon.\n");
  return 0;
}
