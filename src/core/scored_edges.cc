#include "core/scored_edges.h"

namespace netbone {

std::vector<double> ScoredEdges::ScoreValues() const {
  std::vector<double> out;
  out.reserve(scores_.size());
  for (const EdgeScore& s : scores_) out.push_back(s.score);
  return out;
}

std::vector<double> ScoredEdges::ShiftedScores(double delta) const {
  std::vector<double> out;
  out.reserve(scores_.size());
  for (const EdgeScore& s : scores_) out.push_back(s.score - delta * s.sdev);
  return out;
}

namespace internal {

GatheredEdges::GatheredEdges() : scores(static_cast<size_t>(kSubsetChunk)) {
  const size_t n = static_cast<size_t>(kSubsetChunk);
  cols.weight.resize(n);
  cols.n_i.resize(n);
  cols.n_j.resize(n);
  cols.dm1_i.resize(n);
  cols.dm1_j.resize(n);
}

void GatheredEdges::Pack(const EdgeColumns& from, std::span<const EdgeId> ids,
                         int64_t begin, int64_t end) {
  double* const weight = cols.weight.data();
  double* const n_i = cols.n_i.data();
  double* const n_j = cols.n_j.data();
  double* const dm1_i = cols.dm1_i.data();
  double* const dm1_j = cols.dm1_j.data();
  for (int64_t pos = begin; pos < end; ++pos) {
    const size_t e = static_cast<size_t>(ids[static_cast<size_t>(pos)]);
    const size_t k = static_cast<size_t>(pos - begin);
    weight[k] = from.weight[e];
    n_i[k] = from.n_i[e];
    n_j[k] = from.n_j[e];
    dm1_i[k] = from.dm1_i[e];
    dm1_j[k] = from.dm1_j[e];
  }
}

GatheredEdges& ThreadGatheredEdges() {
  thread_local GatheredEdges gathered;
  return gathered;
}

}  // namespace internal

}  // namespace netbone
