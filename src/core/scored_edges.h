// Copyright 2026 The netbone Authors.
//
// Common output representation of every backboning method, mirroring the
// author's Python module where each measure returns a table
// (src, trg, nij, score[, sdev_cij]) that a separate thresholding step
// turns into a backbone.

#ifndef NETBONE_CORE_SCORED_EDGES_H_
#define NETBONE_CORE_SCORED_EDGES_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "common/result.h"
#include "graph/graph.h"

namespace netbone {

/// Per-edge significance record, aligned with the Graph's canonical edge
/// table: entry k scores graph.edge(k).
struct EdgeScore {
  /// Method-specific significance; larger means more salient.
  double score = 0.0;
  /// Standard deviation of the score. Only the Noise-Corrected method
  /// produces one (the paper's posterior sdev of the transformed lift);
  /// zero elsewhere.
  double sdev = 0.0;
};

/// Scores for every edge of a graph, produced by one backboning method.
class ScoredEdges {
 public:
  ScoredEdges() = default;

  /// Wraps scores aligned with `graph`'s edge table.
  ScoredEdges(const Graph* graph, std::string method,
              std::vector<EdgeScore> scores, bool has_sdev)
      : graph_(graph),
        method_(std::move(method)),
        scores_(std::move(scores)),
        has_sdev_(has_sdev) {}

  /// The scored graph (not owned; must outlive this object).
  const Graph& graph() const { return *graph_; }

  /// Human-readable method name ("noise_corrected", "disparity_filter"...).
  const std::string& method() const { return method_; }

  /// Number of scored edges (== graph().num_edges()).
  int64_t size() const { return static_cast<int64_t>(scores_.size()); }

  /// Score record of edge `id`.
  const EdgeScore& at(EdgeId id) const {
    return scores_[static_cast<size_t>(id)];
  }

  /// Raw score vector, aligned with the edge table.
  const std::vector<EdgeScore>& scores() const { return scores_; }

  /// True when the method produces meaningful sdev values (NC only).
  bool has_sdev() const { return has_sdev_; }

  /// All scores as a flat vector (for histograms / distribution plots).
  std::vector<double> ScoreValues() const;

  /// score - delta * sdev for every edge; the quantity whose distribution
  /// the paper plots in Fig. 2.
  std::vector<double> ShiftedScores(double delta) const;

 private:
  const Graph* graph_ = nullptr;
  std::string method_;
  std::vector<EdgeScore> scores_;
  bool has_sdev_ = false;
};

/// Scores every edge of `graph` by running `score_edge` over deterministic
/// contiguous chunks of the edge table on the shared thread pool
/// (common/parallel.h). Output is bit-identical for every `num_threads`
/// (<= 0 = hardware concurrency): each chunk writes disjoint slots of a
/// pre-sized vector, and when several chunks fail, the error of the
/// lowest-numbered edge wins — the same error a serial sweep would report.
///
/// `score_edge` has signature Status(EdgeId id, const Edge& edge,
/// EdgeScore* out); returning non-OK aborts that chunk. The callback may
/// capture extra per-edge outputs (e.g. the NC detail table) and write
/// them at index `id` — chunks never overlap. A template (rather than a
/// std::function) so trivial scorers inline into the per-edge loop.
///
/// `cancel` is polled at chunk entry and every kCancelCheckStride edges;
/// once it fires, remaining chunks stop scoring and the token's status
/// (Cancelled / DeadlineExceeded) is returned — unless some edge already
/// failed for real, in which case the lowest-id edge error still wins (a
/// serial sweep would have hit that edge before any cancellation check
/// at or past it). A null token adds zero per-edge work.
inline constexpr int64_t kCancelCheckStride = 1024;

template <typename Scorer>
Result<std::vector<EdgeScore>> ParallelScoreEdges(
    const Graph& graph, int num_threads, const Scorer& score_edge,
    const CancelToken& cancel = {}) {
  const int64_t n = graph.num_edges();
  std::vector<EdgeScore> scores(static_cast<size_t>(n));
  if (n == 0) return scores;
  const bool cancellable = cancel.CanExpire();

  // Very small edge tables are not worth a pool handoff; a single chunk is
  // observably identical (same slots, same first error) and faster. The
  // reduced count feeds ParallelFor as its thread knob, which is exact:
  // NumParallelChunks(n, chunks) == chunks whenever chunks <= n.
  constexpr int64_t kMinEdgesPerChunk = 2048;
  const int64_t max_useful = std::max<int64_t>(n / kMinEdgesPerChunk, 1);
  const int chunks = static_cast<int>(std::min<int64_t>(
      NumParallelChunks(n, num_threads), max_useful));

  // One slot per chunk; first-error-wins is decided after the join by
  // edge id, so the winning error never depends on scheduling.
  std::vector<Status> chunk_status(static_cast<size_t>(chunks));
  std::vector<EdgeId> chunk_error_edge(static_cast<size_t>(chunks), -1);
  std::atomic<bool> saw_cancel{false};

  ParallelFor(n, chunks, [&](int64_t begin, int64_t end, int chunk) {
    if (cancellable && saw_cancel.load(std::memory_order_relaxed)) return;
    for (int64_t id = begin; id < end; ++id) {
      if (cancellable && (id - begin) % kCancelCheckStride == 0 &&
          !cancel.Check().ok()) {
        saw_cancel.store(true, std::memory_order_relaxed);
        return;
      }
      Status status = score_edge(id, graph.edge(id),
                                 &scores[static_cast<size_t>(id)]);
      if (!status.ok()) {
        chunk_status[static_cast<size_t>(chunk)] = std::move(status);
        chunk_error_edge[static_cast<size_t>(chunk)] = id;
        return;
      }
    }
  });

  EdgeId first_error = -1;
  size_t first_chunk = 0;
  for (size_t c = 0; c < chunk_status.size(); ++c) {
    if (chunk_error_edge[c] >= 0 &&
        (first_error < 0 || chunk_error_edge[c] < first_error)) {
      first_error = chunk_error_edge[c];
      first_chunk = c;
    }
  }
  if (first_error >= 0) return chunk_status[first_chunk];
  // Cancellation is reported only when no edge failed outright: a real
  // edge error is reproducible state the caller can act on (and negative-
  // cache); a cancellation is not. Re-polling the token here is safe —
  // cancel flags never un-fire and deadlines never un-expire.
  if (saw_cancel.load(std::memory_order_relaxed)) return cancel.Check();
  return scores;
}

/// Range-batch variant of ParallelScoreEdges: instead of a per-edge
/// callback, each static chunk hands whole contiguous sub-ranges of the
/// edge table to `score_range` — the entry point the vectorized kernels
/// (core/simd_kernels.h) plug into, so lanes are filled from sequential
/// loads with no per-edge dispatch.
///
/// `score_range` has signature int64_t(int64_t begin, int64_t end,
/// EdgeScore* out): score edges [begin, end) into out[begin..end) and
/// return the lowest edge id in the range with invalid inputs (out[] is
/// unspecified from that id on), or -1 on success. `replay_edge` has
/// signature Status(EdgeId) and regenerates the exact per-edge Status by
/// re-running the scalar oracle; it is invoked once, after the join, on
/// the winning (lowest) failing id — the same first-error-wins protocol
/// as the per-edge sweeps, and bit-identical output when the batch kernel
/// honours its identity contract. Chunk layout, cancellation cadence
/// (every kCancelCheckStride edges) and thread-count invariance all match
/// ParallelScoreEdges exactly.
template <typename RangeScorer, typename Replay>
Result<std::vector<EdgeScore>> ParallelScoreEdgeRanges(
    const Graph& graph, int num_threads, const RangeScorer& score_range,
    const Replay& replay_edge, const CancelToken& cancel = {}) {
  const int64_t n = graph.num_edges();
  std::vector<EdgeScore> scores(static_cast<size_t>(n));
  if (n == 0) return scores;
  const bool cancellable = cancel.CanExpire();

  // Identical chunk geometry to the per-edge overload (see above): the
  // schedule is part of the determinism contract.
  constexpr int64_t kMinEdgesPerChunk = 2048;
  const int64_t max_useful = std::max<int64_t>(n / kMinEdgesPerChunk, 1);
  const int chunks = static_cast<int>(std::min<int64_t>(
      NumParallelChunks(n, num_threads), max_useful));

  std::vector<EdgeId> chunk_error_edge(static_cast<size_t>(chunks), -1);
  std::atomic<bool> saw_cancel{false};

  ParallelFor(n, chunks, [&](int64_t begin, int64_t end, int chunk) {
    // The batch kernel runs kCancelCheckStride edges between polls — the
    // same cadence the per-edge sweep gets from its modulo check.
    for (int64_t sub = begin; sub < end; sub += kCancelCheckStride) {
      if (cancellable) {
        if (saw_cancel.load(std::memory_order_relaxed)) return;
        if (!cancel.Check().ok()) {
          saw_cancel.store(true, std::memory_order_relaxed);
          return;
        }
      }
      const int64_t sub_end = std::min<int64_t>(end, sub + kCancelCheckStride);
      const int64_t bad = score_range(sub, sub_end, scores.data());
      if (bad >= 0) {
        chunk_error_edge[static_cast<size_t>(chunk)] = bad;
        return;
      }
    }
  });

  EdgeId first_error = -1;
  for (const EdgeId bad : chunk_error_edge) {
    if (bad >= 0 && (first_error < 0 || bad < first_error)) first_error = bad;
  }
  if (first_error >= 0) {
    Status status = replay_edge(first_error);
    if (!status.ok()) return status;
    // A kernel may only flag ids the oracle rejects; anything else is a
    // kernel bug worth surfacing loudly rather than scoring silently.
    return Status::Internal("batch kernel flagged an edge the scalar "
                            "oracle accepts");
  }
  if (saw_cancel.load(std::memory_order_relaxed)) return cancel.Check();
  return scores;
}

namespace internal {

/// Dirty ids scored per kernel call by ParallelScoreEdgeRangeSubset.
inline constexpr int64_t kSubsetChunk = 256;

/// The column entries of up to kSubsetChunk scattered edge ids, packed
/// into a dense table so a batch kernel scores them in whole vector
/// lanes. Only the value columns the kernels read (weight, marginals,
/// degree exponents) are packed; src and dst stay empty. Each thread
/// running ParallelScoreEdgeRangeSubset reuses one
/// (ThreadGatheredEdges()), sized once.
struct GatheredEdges {
  GatheredEdges();

  /// Packs the entries of ids[begin..end) into slots 0..end-begin.
  void Pack(const EdgeColumns& from, std::span<const EdgeId> ids,
            int64_t begin, int64_t end);

  EdgeColumns cols;
  std::vector<EdgeScore> scores;
};

GatheredEdges& ThreadGatheredEdges();

}  // namespace internal

/// Rescores only the edges named by `ids`, writing each result into
/// scores[id] and leaving every other slot untouched — the incremental
/// path's kernel (core/delta_rescore.h): after a sparse graph update only
/// the dirty edges pay scoring work. `ids` must be ascending and
/// distinct, and `scores` sized to the full edge table. Blocks of at most
/// `grain` ids are claimed dynamically (dirty work is skewed: a hub's
/// star lands contiguous ids), and each is scored kSubsetChunk ids at a
/// time: a chunk of consecutive ids (a hub's star, an inserted block of
/// a sorted table) goes to `score_range` whole over `cols`, with
/// sequential loads; any other chunk is first packed into a dense
/// per-thread copy of its column entries, so scattered ids fill vector
/// lanes instead of each paying a call and a scalar tail. `score_range`
/// has signature
/// int64_t(const EdgeColumns& cols, int64_t begin, int64_t end,
/// EdgeScore* out) and otherwise the contract of ParallelScoreEdgeRanges'
/// scorer; the kernels' results do not depend on where an edge sits in
/// the table, so both routes give the same bits. Scores land in
/// scores[id]; untouched slots are preserved. First-error-wins matches
/// the full sweeps: the lowest failing position (== lowest id, since ids
/// ascend) wins and its Status is regenerated by `replay_edge`.
template <typename RangeScorer, typename Replay>
Status ParallelScoreEdgeRangeSubset(const EdgeColumns& cols,
                                    std::span<const EdgeId> ids,
                                    int num_threads, int64_t grain,
                                    const RangeScorer& score_range,
                                    const Replay& replay_edge,
                                    std::vector<EdgeScore>* scores,
                                    const CancelToken& cancel = {}) {
  const int64_t count = static_cast<int64_t>(ids.size());
  if (count <= 0) return Status::OK();
  const bool cancellable = cancel.CanExpire();
  std::atomic<int64_t> first_error_pos{count};
  std::atomic<bool> saw_cancel{false};
  ParallelForDynamic(
      count, grain, num_threads, [&](int64_t begin, int64_t end) {
        if (cancellable) {
          if (saw_cancel.load(std::memory_order_relaxed)) return;
          if (!cancel.Check().ok()) {
            saw_cancel.store(true, std::memory_order_relaxed);
            return;
          }
        }
        int64_t error_pos = -1;  // lowest failing position in this block
        for (int64_t chunk = begin; chunk < end && error_pos < 0;
             chunk += internal::kSubsetChunk) {
          const int64_t chunk_end =
              std::min<int64_t>(end, chunk + internal::kSubsetChunk);
          const EdgeId lo = ids[static_cast<size_t>(chunk)];
          const EdgeId hi = ids[static_cast<size_t>(chunk_end - 1)] + 1;
          if (hi - lo == chunk_end - chunk) {
            // Ascending distinct ids spanning exactly the chunk's length:
            // one consecutive run, scored in place.
            const int64_t bad = score_range(cols, lo, hi, scores->data());
            if (bad >= 0) error_pos = chunk + (bad - lo);
            continue;
          }
          internal::GatheredEdges& packed = internal::ThreadGatheredEdges();
          packed.Pack(cols, ids, chunk, chunk_end);
          const int64_t bad = score_range(packed.cols, 0, chunk_end - chunk,
                                          packed.scores.data());
          for (int64_t pos = chunk; pos < chunk_end; ++pos) {
            (*scores)[static_cast<size_t>(ids[static_cast<size_t>(pos)])] =
                packed.scores[static_cast<size_t>(pos - chunk)];
          }
          if (bad >= 0) error_pos = chunk + bad;
        }
        if (error_pos >= 0) {
          int64_t seen = first_error_pos.load(std::memory_order_relaxed);
          while (error_pos < seen &&
                 !first_error_pos.compare_exchange_weak(
                     seen, error_pos, std::memory_order_relaxed)) {
          }
        }
      });
  const int64_t winner = first_error_pos.load(std::memory_order_relaxed);
  if (winner == count) {
    if (saw_cancel.load(std::memory_order_relaxed)) return cancel.Check();
    return Status::OK();
  }
  Status status = replay_edge(ids[static_cast<size_t>(winner)]);
  if (!status.ok()) return status;
  return Status::Internal("batch kernel flagged an edge the scalar oracle "
                          "accepts");
}

}  // namespace netbone

#endif  // NETBONE_CORE_SCORED_EDGES_H_
