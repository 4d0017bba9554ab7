#include "oracle.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <tuple>

#include "core/filter.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "eval/coverage.h"
#include "eval/stability.h"

namespace perfbench {
namespace {

namespace nb = netbone;

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Scores, order and profile of one (graph, method), built without the
/// engine.
struct Artifacts {
  explicit Artifacts(nb::ScoredEdges s)
      : scored(std::move(s)), order(scored), profile(BuildSweepProfile(order)) {}
  nb::ScoredEdges scored;
  nb::ScoreOrder order;
  nb::SweepProfile profile;
};

nb::Result<std::unique_ptr<Artifacts>> Score(const nb::Graph& graph,
                                             nb::Method method) {
  nb::Result<nb::ScoredEdges> scored = nb::RunMethod(method, graph);
  if (!scored.ok()) return scored.status();
  return std::make_unique<Artifacts>(*std::move(scored));
}

nb::Result<nb::BackboneResponse> FromArtifacts(
    const nb::Graph& graph, const nb::Graph* next, const Artifacts& art,
    const nb::BackboneRequest& request) {
  nb::BackboneResponse out;
  const auto from_mask = [&](const nb::BackboneMask& mask) -> nb::Status {
    out.kept = mask.kept;
    if (art.profile.target_nodes > 0) {
      nb::Result<double> coverage = nb::CoverageOfMask(graph, mask);
      if (!coverage.ok()) return coverage.status();
      out.coverage = *coverage;
    }
    out.weight_share = art.profile.WeightShareAt(mask.kept);
    if (request.include_edges) out.kept_edges = nb::MaskToEdgeIds(mask);
    return nb::Status::OK();
  };
  switch (request.kind) {
    case nb::RequestKind::kTopK:
      if (nb::Status s = from_mask(nb::TopK(art.order, request.k)); !s.ok()) {
        return s;
      }
      break;
    case nb::RequestKind::kTopShare:
      if (nb::Status s = from_mask(nb::TopShare(art.order, request.share));
          !s.ok()) {
        return s;
      }
      break;
    case nb::RequestKind::kGrowUntilConnected:
      if (nb::Status s = from_mask(nb::GrowUntilConnected(art.order));
          !s.ok()) {
        return s;
      }
      break;
    case nb::RequestKind::kCoveragePoint: {
      const int64_t k = art.order.KForShare(request.share);
      out.kept = k;
      out.coverage = art.profile.CoverageAt(k);
      out.weight_share = art.profile.WeightShareAt(k);
      break;
    }
    case nb::RequestKind::kSweep:
      for (const double share : request.shares) {
        const int64_t k = art.order.KForShare(share);
        out.sweep.push_back(nb::SweepPoint{k, art.profile.CoverageAt(k),
                                           art.profile.WeightShareAt(k)});
      }
      out.connect_k = art.profile.connect_k;
      break;
    case nb::RequestKind::kStabilityPoint: {
      if (next == nullptr) {
        return nb::Status::InvalidArgument("stability sample without next");
      }
      const nb::BackboneMask mask = nb::TopShare(art.order, request.share);
      nb::Result<double> stability = nb::Stability(graph, *next, mask);
      if (!stability.ok()) return stability.status();
      out.stability = *stability;
      out.kept = mask.kept;
      break;
    }
    case nb::RequestKind::kScoreThreshold:
      return nb::Status::InvalidArgument("kind not used by the benchmark");
  }
  return out;
}

/// True when every response field except cache_hit matches bitwise.
bool SameResponse(const nb::BackboneResponse& a,
                  const nb::BackboneResponse& b) {
  if (a.kept_edges != b.kept_edges || a.kept != b.kept ||
      !SameBits(a.coverage, b.coverage) ||
      !SameBits(a.weight_share, b.weight_share) ||
      a.sweep.size() != b.sweep.size() || a.connect_k != b.connect_k ||
      !SameBits(a.stability, b.stability) || a.degraded != b.degraded ||
      a.degraded_from != b.degraded_from) {
    return false;
  }
  for (size_t i = 0; i < a.sweep.size(); ++i) {
    if (a.sweep[i].k != b.sweep[i].k ||
        !SameBits(a.sweep[i].coverage, b.sweep[i].coverage) ||
        !SameBits(a.sweep[i].weight_share, b.sweep[i].weight_share)) {
      return false;
    }
  }
  return true;
}

}  // namespace


CheckResult CheckSamples(std::vector<Sample>& samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return std::make_tuple(a.graph.get(),
                                     static_cast<int>(a.request.method)) <
                     std::make_tuple(b.graph.get(),
                                     static_cast<int>(b.request.method));
            });
  CheckResult result;
  size_t i = 0;
  while (i < samples.size()) {
    size_t j = i;
    while (j < samples.size() && samples[j].graph == samples[i].graph &&
           samples[j].request.method == samples[i].request.method) {
      ++j;
    }
    nb::Result<std::unique_ptr<Artifacts>> art =
        Score(*samples[i].graph, samples[i].request.method);
    for (size_t s = i; s < j; ++s) {
      ++result.checked;
      const Sample& sample = samples[s];
      nb::Result<nb::BackboneResponse> expected =
          art.ok() ? FromArtifacts(*sample.graph, sample.next.get(), **art,
                                   sample.request)
                   : nb::Result<nb::BackboneResponse>(art.status());
      if (!expected.ok() || !SameResponse(*expected, sample.response)) {
        ++result.mismatches;
        if (result.mismatches <= 5) {
          std::fprintf(stderr, "oracle mismatch: kind %s method %d%s\n",
                       nb::RequestKindName(sample.request.kind),
                       static_cast<int>(sample.request.method),
                       expected.ok() ? "" : " (oracle failed)");
        }
      }
    }
    i = j;
  }
  return result;
}

}  // namespace perfbench
