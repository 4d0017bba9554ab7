#include "generate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/checksum.h"
#include "common/random.h"
#include "gen/countries.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "service/graph_store.h"

namespace perfbench {
namespace {

namespace nb = netbone;

/// Aborts on a generator failure: inputs are fixed by design, so a
/// failure is a bug in this file, not a condition to report per run.
template <typename T>
T Must(nb::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return *std::move(result);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return nb::Mix64(seed ^ nb::Mix64(stream + 0x9E3779B97F4A7C15ULL));
}

nb::Graph BuildFrom(nb::Directedness directedness, nb::NodeId num_nodes,
                    const std::vector<nb::Edge>& edges) {
  nb::GraphBuilder builder(directedness);
  builder.ReserveNodes(num_nodes);
  for (const nb::Edge& e : edges) builder.AddEdge(e.src, e.dst, e.weight);
  return Must(builder.Build(), "GraphBuilder::Build");
}

template <typename T>
uint64_t HashVector(const std::vector<T>& values, uint64_t h) {
  return nb::Checksum64(values.data(), values.size() * sizeof(T), h);
}

uint64_t HashGraph(const nb::Graph& graph, uint64_t h) {
  const uint64_t fp = nb::GraphFingerprint(graph);
  return nb::Checksum64(&fp, sizeof(fp), h);
}

}  // namespace

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kWarmSkewed:
      return "warm_skewed";
    case WorkloadId::kRevisionStream:
      return "revision_stream";
    case WorkloadId::kColdFig9:
      return "cold_fig9";
    case WorkloadId::kWarmSkewedSharded:
      return "warm_skewed_sharded";
  }
  return "unknown";
}

std::optional<WorkloadId> ParseWorkload(std::string_view name) {
  for (const WorkloadId id :
       {WorkloadId::kWarmSkewed, WorkloadId::kRevisionStream,
        WorkloadId::kColdFig9, WorkloadId::kWarmSkewedSharded}) {
    if (name == WorkloadName(id)) return id;
  }
  return std::nullopt;
}

std::vector<double> SweepGrid() {
  std::vector<double> grid;
  for (int i = 1; i <= kSweepPoints; ++i) {
    grid.push_back(static_cast<double>(i) / kSweepPoints);
  }
  return grid;
}

WarmInputs GenerateWarm(uint64_t seed, double phase_a_seconds) {
  WarmInputs inputs;
  // Graph g is popularity rank g. Its size comes from a geometric ladder
  // through a permutation that does not depend on the seed, so every seed
  // gives the same size/popularity pairing and runs on different seeds
  // measure the same workload.
  std::vector<int> ladder(kWarmGraphs);
  for (int i = 0; i < kWarmGraphs; ++i) ladder[i] = i;
  nb::Rng shape(0x5EEDF00DULL);
  for (int i = kWarmGraphs - 1; i > 0; --i) {
    std::swap(ladder[i], ladder[shape.NextBounded(i + 1)]);
  }
  for (int g = 0; g < kWarmGraphs; ++g) {
    const double step = static_cast<double>(ladder[g]) / (kWarmGraphs - 1);
    const double edges =
        static_cast<double>(kWarmMinEdges) *
        std::pow(static_cast<double>(kWarmMaxEdges) / kWarmMinEdges, step);
    nb::ErdosRenyiOptions er;
    er.average_degree = 4.0;
    er.num_nodes = static_cast<nb::NodeId>(std::llround(edges / 2.0));
    er.seed = SubSeed(seed, 100 + g);
    inputs.graphs.push_back(Must(nb::GenerateErdosRenyi(er), "ER (warm)"));
  }

  std::vector<double> cdf(kWarmGraphs);
  double total = 0.0;
  for (int r = 0; r < kWarmGraphs; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kWarmZipfExponent);
    cdf[r] = total;
  }
  nb::Rng rng(SubSeed(seed, 1));
  inputs.trace.resize(kWarmTraceLength);
  for (size_t i = 0; i < kWarmTraceLength; ++i) {
    WarmOp& op = inputs.trace[i];
    const double u = rng.NextDouble() * total;
    op.graph = static_cast<uint16_t>(
        std::min<ptrdiff_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                cdf.begin(),
                            kWarmGraphs - 1));
    op.method = static_cast<uint8_t>(i % 3);
    const double k = rng.NextDouble();
    op.kind = static_cast<uint8_t>(
        k < 0.60   ? WarmKind::kCoveragePoint
        : k < 0.85 ? WarmKind::kTopShare
        : k < 0.95 ? WarmKind::kSweep
                   : WarmKind::kGrowUntilConnected);
    op.share = static_cast<float>(rng.Uniform(0.02, 0.5));
  }

  nb::Rng arrivals(SubSeed(seed, 2));
  const double horizon_ns = phase_a_seconds * 1e9;
  double t = 0.0;
  while (true) {
    t += arrivals.Exponential(kWarmOfferedRate) * 1e9;
    if (t >= horizon_ns) break;
    inputs.schedule_ns.push_back(static_cast<int64_t>(t));
  }
  return inputs;
}

RevisionInputs GenerateRevisions(uint64_t seed) {
  RevisionInputs inputs;
  // The six networks are one fixed dataset, as the paper's are; the seed
  // drives the noisy re-observations of them. So every seed streams
  // revisions of networks of the same sizes.
  const nb::CountrySuite suite = Must(
      nb::GenerateCountrySuite(kCountryDataSeed, /*num_years=*/1),
      "country suite");
  std::vector<nb::Graph> bases;
  for (const nb::CountryNetworkKind kind : nb::AllCountryNetworkKinds()) {
    const nb::Graph& observed = suite.network(kind).front();
    // Rebuilt without labels: every revision below is built from ids, and
    // a chain's graphs must differ only in their weights.
    bases.push_back(BuildFrom(observed.directedness(), observed.num_nodes(),
                              observed.edges()));
  }
  // Every client streams its own chain of each network, so each client's
  // revisions spread evenly over the six networks whatever their sizes.
  for (int chain_index = 0;
       chain_index < kRevisionClients * static_cast<int>(bases.size());
       ++chain_index) {
    RevisionChain chain;
    chain.base = bases[static_cast<size_t>(chain_index) % bases.size()];
    std::vector<double> weights;
    for (const nb::Edge& e : chain.base.edges()) weights.push_back(e.weight);
    const uint64_t n = weights.size();
    const int64_t transfers = std::max<int64_t>(
        1, std::llround(static_cast<double>(n) * kRevisionTouchedShare / 2.0));
    nb::Rng rng(SubSeed(seed, 1000 + chain_index));
    for (int r = 1; r <= kRevisionSteps; ++r) {
      RevisionStep step;
      step.moves_begin = static_cast<uint32_t>(chain.moves.size());
      for (int64_t t = 0; t < transfers; ++t) {
        const uint64_t from = rng.NextBounded(n);
        const uint64_t to = rng.NextBounded(n);
        if (from == to || weights[from] < 2.0) continue;
        weights[from] -= 1.0;
        weights[to] += 1.0;
        chain.moves.emplace_back(static_cast<int32_t>(from),
                                 static_cast<int32_t>(to));
      }
      step.moves_end = static_cast<uint32_t>(chain.moves.size());
      if (r % kTotalChangeEvery == 0) {
        step.bump_edge = static_cast<int32_t>(rng.NextBounded(n));
        weights[static_cast<size_t>(step.bump_edge)] += 1.0;
      }
      step.share = static_cast<float>(rng.Uniform(0.05, 0.3));
      for (uint8_t& back : step.revisit) {
        // One read in five of each method's top share goes to an older
        // revision: with the coverage point on the new revision, that is
        // one read in ten.
        if (rng.NextDouble() < 0.2) {
          back = static_cast<uint8_t>(
              1 + rng.NextBounded(std::min(kMaxRevisitBack, r)));
        }
      }
      chain.steps.push_back(step);
    }
    inputs.chains.push_back(std::move(chain));
  }
  return inputs;
}

nb::Graph ApplyRevisionStep(const RevisionChain& chain,
                            const RevisionStep& step,
                            std::vector<nb::Edge>& edges) {
  for (uint32_t i = step.moves_begin; i < step.moves_end; ++i) {
    edges[static_cast<size_t>(chain.moves[i].first)].weight -= 1.0;
    edges[static_cast<size_t>(chain.moves[i].second)].weight += 1.0;
  }
  if (step.bump_edge >= 0) {
    edges[static_cast<size_t>(step.bump_edge)].weight += 1.0;
  }
  return BuildFrom(chain.base.directedness(), chain.base.num_nodes(), edges);
}

ColdInputs GenerateCold(uint64_t seed) {
  ColdInputs inputs;
  for (int i = 0; i < kColdPool; ++i) {
    nb::ErdosRenyiOptions er;
    er.num_nodes = kColdNodes;
    er.average_degree = 3.0;
    er.seed = SubSeed(seed, 200 + i);
    inputs.pool.push_back(Must(nb::GenerateErdosRenyi(er), "ER (cold)"));
  }
  return inputs;
}

nb::Graph FreshCopy(const nb::Graph& graph) {
  return BuildFrom(graph.directedness(), graph.num_nodes(), graph.edges());
}

uint64_t Digest(const WarmInputs& inputs) {
  uint64_t h = 0x77A4;
  for (const nb::Graph& g : inputs.graphs) h = HashGraph(g, h);
  h = HashVector(inputs.trace, h);
  return HashVector(inputs.schedule_ns, h);
}

uint64_t Digest(const RevisionInputs& inputs) {
  uint64_t h = 0x4E71;
  for (const RevisionChain& chain : inputs.chains) {
    h = HashGraph(chain.base, h);
    h = HashVector(chain.moves, h);
    // Field by field: the struct has padding bytes.
    for (const RevisionStep& step : chain.steps) {
      const int64_t fields[7] = {step.moves_begin, step.moves_end,
                                 step.bump_edge,   step.revisit[0],
                                 step.revisit[1],  step.revisit[2],
                                 static_cast<int64_t>(step.share * 1e6f)};
      h = nb::Checksum64(fields, sizeof(fields), h);
    }
  }
  return h;
}

uint64_t Digest(const ColdInputs& inputs) {
  uint64_t h = 0xC01D;
  for (const nb::Graph& g : inputs.pool) h = HashGraph(g, h);
  return h;
}

}  // namespace perfbench
