#include "core/sweep.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>

#include "graph/edge_columns.h"
#include "graph/union_find.h"

namespace netbone {
namespace {

/// Every score sort in the process goes through ScoreOrder's constructor;
/// this counter lets tests prove a batch sweep sorted exactly once per
/// method.
std::atomic<int64_t> g_sorts_performed{0};

/// The one comparator every score ordering uses: (score desc, weight
/// desc, id asc). Total order — ids are unique — so the sorted sequence
/// is unique and patch-merged orders are bit-identical to sorted ones.
struct DescendingScore {
  const ScoredEdges* scored;
  const Graph* graph;

  bool operator()(EdgeId a, EdgeId b) const {
    const double sa = scored->at(a).score;
    const double sb = scored->at(b).score;
    if (sa != sb) return sa > sb;
    const double wa = graph->edge(a).weight;
    const double wb = graph->edge(b).weight;
    if (wa != wb) return wa > wb;
    return a < b;
  }
};

/// Descending sort key of a score: unsigned ascending key order is
/// descending score order. The order-preserving bit transform of an IEEE
/// double (flip every bit of a negative, only the sign of a positive),
/// then complemented. -0.0 is first canonicalised to +0.0: the comparator
/// treats the two as equal scores, so they must share a key.
uint64_t DescendingKey(double score) {
  const uint64_t bits = std::bit_cast<uint64_t>(score == 0.0 ? 0.0 : score);
  return (bits >> 63) != 0 ? bits : bits ^ 0x7fffffffffffffffULL;
}

/// The key sort is a most-significant-digit radix sort over 8-bit digits,
/// starting at the highest bit on which any two keys differ: each level
/// splits a run into 256 buckets by a stable counting pass, and a digit
/// on which every key of the run agrees costs only its histogram. Past
/// the first level or two the buckets fit in cache, so only those levels
/// stream the whole table through memory.
constexpr int kRadixBits = 8;
constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;
constexpr uint64_t kDigitMask = kRadixBuckets - 1;
/// Below this many keys a range is insertion-sorted instead: a 256-bucket
/// histogram costs more than it saves.
constexpr size_t kRadixMinSize = 64;

/// Stable insertion sort of a small key range, carrying the payload.
template <typename Payload>
void InsertionSortKeys(uint64_t* keys, Payload* payload, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    const uint64_t key = keys[i];
    const Payload value = payload[i];
    size_t j = i;
    for (; j > 0 && keys[j - 1] > key; --j) {
      keys[j] = keys[j - 1];
      payload[j] = payload[j - 1];
    }
    keys[j] = key;
    payload[j] = value;
  }
}

/// A run of keys with their payload alongside.
template <typename Payload>
struct KeyRun {
  uint64_t* keys;
  Payload* payload;

  KeyRun At(size_t offset) const {
    return KeyRun{keys + offset, payload + offset};
  }
  void CopyTo(const KeyRun& to, size_t n) const {
    std::copy(keys, keys + n, to.keys);
    std::copy(payload, payload + n, to.payload);
  }
};

/// Stable sort of the n keys in `from` that agree on every bit at or
/// above `bits`. `to` is a parallel run of the same length, and the
/// sorted keys land in `to` when `into_other` is set, in `from` otherwise.
/// Each level takes one histogram pass on the top digit below `bits` and,
/// unless every key shares that digit, one scatter into the other run;
/// its buckets then recurse with the runs' roles swapped, so no level
/// copies back.
template <typename Payload>
void SortRun(KeyRun<Payload> from, KeyRun<Payload> to, size_t n, int bits,
             bool into_other) {
  if (n < kRadixMinSize || bits <= 0) {
    InsertionSortKeys(from.keys, from.payload, n);
    if (into_other) from.CopyTo(to, n);
    return;
  }
  const int shift = std::max(0, bits - kRadixBits);
  std::array<size_t, kRadixBuckets> histogram{};
  for (size_t i = 0; i < n; ++i) {
    ++histogram[(from.keys[i] >> shift) & kDigitMask];
  }
  if (histogram[(from.keys[0] >> shift) & kDigitMask] == n) {
    SortRun(from, to, n, shift, into_other);  // one digit: skip it
    return;
  }
  std::array<size_t, kRadixBuckets> next;
  size_t offset = 0;
  for (size_t b = 0; b < kRadixBuckets; ++b) {
    next[b] = offset;
    offset += histogram[b];
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = next[(from.keys[i] >> shift) & kDigitMask]++;
    to.keys[slot] = from.keys[i];
    to.payload[slot] = from.payload[i];
  }
  size_t begin = 0;
  for (const size_t bucket : histogram) {
    if (bucket != 0) {
      SortRun(to.At(begin), from.At(begin), bucket, shift, !into_other);
    }
    begin += bucket;
  }
}

/// Stable sort of `keys` ascending, carrying `payload` along. The scratch
/// runs live only for the call.
template <typename Payload>
void RadixSortKeys(std::vector<uint64_t>* keys,
                   std::vector<Payload>* payload) {
  const size_t n = keys->size();
  uint64_t differing = 0;
  for (const uint64_t key : *keys) differing |= key ^ (*keys)[0];
  std::vector<uint64_t> key_scratch(n);
  std::vector<Payload> payload_scratch(n);
  SortRun(KeyRun<Payload>{keys->data(), payload->data()},
          KeyRun<Payload>{key_scratch.data(), payload_scratch.data()}, n,
          64 - std::countl_zero(differing), /*into_other=*/false);
}

/// Ids in (score desc, weight desc, id asc) order, with each id's key
/// alongside (the patch merge compares on them).
struct KeyedIds {
  std::vector<uint64_t> keys;
  std::vector<EdgeId> ids;
};

/// The one score sort: ranks the `count` ids `id_at(0..count)` by
/// DescendingScore, element for element. Keys are radix-sorted with the
/// input position as payload (32-bit whenever the input fits); each run
/// of equal keys — tied scores — is then finished by the comparator,
/// which falls through to (weight desc, id asc) inside it.
template <typename Payload, typename IdAt>
KeyedIds SortByScoreWith(const ScoredEdges& scored, size_t count,
                         const IdAt& id_at) {
  KeyedIds out;
  std::vector<Payload> position(count);
  out.keys.resize(count);
  for (size_t i = 0; i < count; ++i) {
    out.keys[i] = DescendingKey(scored.at(id_at(i)).score);
    position[i] = static_cast<Payload>(i);
  }
  RadixSortKeys(&out.keys, &position);
  out.ids.resize(count);
  for (size_t i = 0; i < count; ++i) {
    out.ids[i] = id_at(static_cast<size_t>(position[i]));
  }
  position = {};
  const DescendingScore cmp{&scored, &scored.graph()};
  for (size_t begin = 0; begin < count;) {
    size_t end = begin + 1;
    while (end < count && out.keys[end] == out.keys[begin]) ++end;
    if (end - begin > 1) {
      std::sort(out.ids.begin() + static_cast<ptrdiff_t>(begin),
                out.ids.begin() + static_cast<ptrdiff_t>(end), cmp);
    }
    begin = end;
  }
  return out;
}

template <typename IdAt>
KeyedIds SortByScore(const ScoredEdges& scored, size_t count,
                     const IdAt& id_at) {
  if (count <= std::numeric_limits<uint32_t>::max()) {
    return SortByScoreWith<uint32_t>(scored, count, id_at);
  }
  return SortByScoreWith<uint64_t>(scored, count, id_at);
}

/// Every id of the table, ranked: the full sort, counted.
std::vector<EdgeId> SortAll(const ScoredEdges& scored) {
  g_sorts_performed.fetch_add(1, std::memory_order_relaxed);
  return SortByScore(scored, static_cast<size_t>(scored.size()),
                     [](size_t i) { return static_cast<EdgeId>(i); })
      .ids;
}

/// Successor id of a base id: an empty base_to_next is the identity.
EdgeId NextId(std::span<const EdgeId> base_to_next, EdgeId b) {
  return base_to_next.empty() ? b : base_to_next[static_cast<size_t>(b)];
}

/// A delta rescoring at least 1/kDenseDeltaDivisor of the table is patched
/// by PatchDense, a smaller one by PatchSparse.
constexpr size_t kDenseDeltaDivisor = 4;

/// Patch for a dense delta. The dirty ids are key-sorted like a table of
/// their own, then one linear pass over the base order merges them with
/// the surviving clean ids — remapped to successor ids, in base rank
/// order, which monotone remap + bitwise-unchanged keys keep sorted —
/// comparing keys, and the comparator only where keys tie. Returns false
/// when clean + dirty does not cover the table.
bool PatchDense(const ScoredEdges& scored, std::span<const EdgeId> base_ids,
                std::span<const EdgeId> base_to_next,
                std::span<const EdgeId> dirty,
                const std::vector<uint8_t>& state, std::vector<EdgeId>* ids) {
  const size_t n = state.size();
  const KeyedIds ranked = SortByScore(scored, dirty.size(),
                                      [&](size_t i) { return dirty[i]; });
  const DescendingScore cmp{&scored, &scored.graph()};
  const EdgeScore* const scores = scored.scores().data();
  const size_t num_dirty = ranked.ids.size();
  ids->resize(n);
  EdgeId* const out = ids->data();
  size_t written = 0;
  size_t next_dirty = 0;
  for (const EdgeId b : base_ids) {
    const EdgeId next_id = NextId(base_to_next, b);
    if (static_cast<uint64_t>(next_id) >= n ||  // deleted (-1) or stale
        state[static_cast<size_t>(next_id)] != 0) {
      continue;
    }
    const uint64_t key =
        DescendingKey(scores[static_cast<size_t>(next_id)].score);
    while (next_dirty < num_dirty &&
           (ranked.keys[next_dirty] < key ||
            (ranked.keys[next_dirty] == key &&
             cmp(ranked.ids[next_dirty], next_id)))) {
      if (written == n) return false;
      out[written++] = ranked.ids[next_dirty++];
    }
    if (written == n) return false;
    out[written++] = next_id;
  }
  if (written + (num_dirty - next_dirty) != n) return false;
  std::copy(ranked.ids.begin() + static_cast<ptrdiff_t>(next_dirty),
            ranked.ids.end(), out + written);
  return true;
}

/// A dirty id on its way into a sparse patch: its descending key, and a
/// slot in the clean run near which the search for its new slot starts.
struct DirtyEntry {
  uint64_t key;
  EdgeId id;
  size_t hint;
};

/// PatchSparse's pass over the base order: each base id, mapped to its
/// successor id, is appended to `clean_out` when clean (state 0), or to
/// `moved` with the clean count so far as its hint when dirty (state 1,
/// at most `max_moved` kept); deleted and out-of-range ids are dropped.
/// Returns the clean and dirty counts.
template <typename MapId>
std::pair<size_t, size_t> SplitBaseOrder(std::span<const EdgeId> base_ids,
                                         const MapId& map_id,
                                         const std::vector<uint8_t>& state,
                                         EdgeId* clean_out,
                                         DirtyEntry* moved,
                                         size_t max_moved) {
  const size_t n = state.size();
  const uint8_t* const st = state.data();
  size_t clean = 0;
  size_t seen = 0;
  for (const EdgeId b : base_ids) {
    const EdgeId next_id = map_id(b);
    if (static_cast<uint64_t>(next_id) >= n) continue;  // deleted (-1)
    const uint8_t s = st[static_cast<size_t>(next_id)];
    if (s == 0) {
      clean_out[clean++] = next_id;
    } else if (s == 1 && seen < max_moved) {
      moved[seen++] = DirtyEntry{0, next_id, clean};
    }
  }
  return {clean, seen};
}

/// Patch for a sparse delta, which moves most rescored edges only a few
/// ranks. One pass over the base order compacts the surviving clean ids
/// (remapped, in base rank order, so still sorted) into the front of
/// `ids`, and collects the dirty ids in the same order, each hinted with
/// its old slot in the clean run. Nearly sorted already, the dirty ids
/// are ranked by an insertion sort; past a shift budget (a delta that
/// reshuffles them) they go to the key sort instead, hinted with the end
/// of the clean run. Then each, from the last, gallops out from its hint
/// to its slot in the remaining clean run, and the clean segment behind
/// the slot moves up once. `state` marks collected dirty ids 2. Returns
/// false when clean + dirty does not cover the table.
bool PatchSparse(const ScoredEdges& scored, std::span<const EdgeId> base_ids,
                 std::span<const EdgeId> base_to_next,
                 std::span<const EdgeId> dirty, std::vector<uint8_t>* state,
                 std::vector<EdgeId>* ids) {
  const size_t n = state->size();
  ids->resize(std::max(n, base_ids.size()));
  std::vector<DirtyEntry> moved(dirty.size());
  const auto [clean, seen] =
      base_to_next.empty()
          ? SplitBaseOrder(base_ids, [](EdgeId b) { return b; }, *state,
                           ids->data(), moved.data(), moved.size())
          : SplitBaseOrder(
                base_ids,
                [&](EdgeId b) { return base_to_next[static_cast<size_t>(b)]; },
                *state, ids->data(), moved.data(), moved.size());
  EdgeId* const out = ids->data();
  // Dirty ids the base order never held (inserted edges) join at the end.
  uint8_t* const st = state->data();
  for (size_t k = 0; k < seen; ++k) st[static_cast<size_t>(moved[k].id)] = 2;
  moved.resize(seen);
  for (const EdgeId id : dirty) {
    if (st[static_cast<size_t>(id)] == 1) {
      st[static_cast<size_t>(id)] = 2;
      moved.push_back(DirtyEntry{0, id, clean});
    }
  }
  if (clean + moved.size() != n) return false;

  const DescendingScore cmp{&scored, &scored.graph()};
  const EdgeScore* const scores = scored.scores().data();
  for (DirtyEntry& entry : moved) {
    entry.key = DescendingKey(scores[static_cast<size_t>(entry.id)].score);
  }
  const auto precedes = [&](const DirtyEntry& a, const DirtyEntry& b) {
    return a.key < b.key || (a.key == b.key && cmp(a.id, b.id));
  };
  const size_t count = moved.size();
  size_t budget = 4 * count + 64;
  for (size_t i = 1; i < count; ++i) {
    const DirtyEntry entry = moved[i];
    size_t j = i;
    for (; j > 0 && precedes(entry, moved[j - 1]); --j) moved[j] = moved[j - 1];
    moved[j] = entry;
    if (i - j > budget) {
      const KeyedIds ranked =
          SortByScore(scored, count, [&](size_t k) { return moved[k].id; });
      for (size_t k = 0; k < count; ++k) {
        moved[k] = DirtyEntry{ranked.keys[k], ranked.ids[k], clean};
      }
      break;
    }
    budget -= i - j;
  }

  // In place, from the back: the last dirty id lands at out[n - 1]. A
  // dirty id goes before a clean one exactly when the comparator says so;
  // it is a total order, so the result is the full sort's.
  size_t clean_end = clean;
  size_t write = n;
  for (size_t j = count; j-- > 0;) {
    const EdgeId id = moved[j].id;
    const double score = scores[static_cast<size_t>(id)].score;
    // The comparator, with the dirty id's score hoisted.
    const auto goes_before = [&](size_t at) {
      const EdgeId c = out[at];
      const double clean_score = scores[static_cast<size_t>(c)].score;
      return score != clean_score ? score > clean_score : cmp(id, c);
    };
    // First clean slot in [0, clean_end) the dirty id goes before
    // (clean_end if none): the predicate is false, then true, along the
    // run. Narrow [lo, hi] around the hint by doubling steps.
    const size_t start = std::min(moved[j].hint, clean_end);
    size_t lo = 0;
    size_t hi = clean_end;
    if (start < clean_end && !goes_before(start)) {
      lo = start + 1;
      for (size_t step = 1; lo + step - 1 < clean_end; step *= 2) {
        const size_t probe = lo + step - 1;
        if (goes_before(probe)) {
          hi = probe;
          break;
        }
        lo = probe + 1;
      }
    } else {
      hi = start;
      for (size_t step = 1; step <= hi; step *= 2) {
        const size_t probe = hi - step;
        if (!goes_before(probe)) {
          lo = probe + 1;
          break;
        }
        hi = probe;
      }
    }
    // Branch-free halving: the outcome of each probe is a coin flip.
    for (size_t len = hi - lo; len > 0;) {
      const size_t half = len / 2;
      const bool before = goes_before(lo + half);
      lo = before ? lo : lo + half + 1;
      len = before ? half : len - half - 1;
    }
    std::copy_backward(out + lo, out + clean_end, out + write);
    write -= clean_end - lo;
    out[--write] = id;
    clean_end = lo;
  }
  ids->resize(n);
  return true;
}

/// Counters the connect-index walk hands back to its caller.
struct WalkResult {
  /// Smallest prefix length covering all non-isolated nodes in one
  /// component; |E| when none does, 0 when there is nothing to cover.
  int64_t connect_k = 0;
  /// Non-isolated node count of the original graph.
  int64_t target_nodes = 0;
};

/// How far ahead of the current rank the walk prefetches: the endpoint
/// columns of the edge kPrefetchRanks ahead, and the union-find and
/// touched slots of the edge half as far ahead, whose endpoints the first
/// prefetch already brought in.
constexpr int64_t kPrefetchRanks = 16;

/// The connect-index walk shared by GrowUntilConnected and
/// BuildSweepProfile: feeds `visit(rank, weight, covered)` the edges in
/// rank order together with the running covered-endpoint count, so callers
/// building prefix arrays read the walk's own counters instead of
/// re-deriving them. `stop_at_connect` enables the early exit for
/// single-point callers. Endpoints and weights come from the graph's SoA
/// columns (graph/edge_columns.h): the walk visits edges in rank order —
/// random edge ids — so every probe is a likely cache miss, and the walk
/// prefetches the columns, then the endpoints' union-find and touched
/// slots, a few ranks ahead of use.
template <typename Visit>
WalkResult WalkOrder(const ScoreOrder& order, bool stop_at_connect,
                     const Visit& visit) {
  const Graph& g = order.graph();
  WalkResult result;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.out_degree(v) > 0 || g.in_degree(v) > 0) ++result.target_nodes;
  }
  const int64_t num_edges = order.size();
  if (result.target_nodes == 0) return result;  // no edges to walk either

  const EdgeColumns& cols = g.edge_columns();
  const NodeId* const src_col = cols.src.data();
  const NodeId* const dst_col = cols.dst.data();
  const double* const weight_col = cols.weight.data();
  const EdgeId* const ids = order.ids().data();
  UnionFind uf(g.num_nodes());
  std::vector<uint8_t> touched(static_cast<size_t>(g.num_nodes()), 0);
  int64_t touched_count = 0;
  int64_t largest = 1;
  result.connect_k = num_edges;
  bool connected = false;

  for (int64_t rank = 0; rank < num_edges; ++rank) {
    if (rank + kPrefetchRanks < num_edges) {
      const size_t ahead = static_cast<size_t>(ids[rank + kPrefetchRanks]);
      __builtin_prefetch(&src_col[ahead]);
      __builtin_prefetch(&dst_col[ahead]);
      __builtin_prefetch(&weight_col[ahead]);
      const size_t near =
          static_cast<size_t>(ids[rank + kPrefetchRanks / 2]);
      for (const NodeId v : {src_col[near], dst_col[near]}) {
        uf.Prefetch(v);
        __builtin_prefetch(&touched[static_cast<size_t>(v)]);
      }
    }
    const size_t id = static_cast<size_t>(ids[rank]);
    const NodeId src = src_col[id];
    const NodeId dst = dst_col[id];
    for (const NodeId v : {src, dst}) {
      if (touched[static_cast<size_t>(v)] == 0) {
        touched[static_cast<size_t>(v)] = 1;
        ++touched_count;
      }
    }
    // SetSize is only consulted when a merge actually happened — a failed
    // Union cannot grow any set, and skipping the extra Find pays on the
    // later ranks where most edges close cycles.
    if (uf.Union(src, dst)) {
      largest = std::max(largest, uf.SetSize(src));
    }
    visit(rank, weight_col[id], touched_count);
    if (!connected && touched_count == result.target_nodes &&
        largest == result.target_nodes) {
      connected = true;
      result.connect_k = rank + 1;
      if (stop_at_connect) break;
    }
  }
  return result;
}

}  // namespace

ScoreOrder::ScoreOrder(const ScoredEdges& scored)
    : scored_(&scored), ids_(SortAll(scored)) {}

Result<ScoreOrder> ScoreOrder::FromPermutation(const ScoredEdges& scored,
                                               std::vector<EdgeId> ids) {
  const size_t n = static_cast<size_t>(scored.size());
  if (ids.size() != n) {
    return Status::Corruption("score order length does not match table");
  }
  std::vector<char> seen(n, 0);
  for (const EdgeId id : ids) {
    if (id < 0 || static_cast<size_t>(id) >= n ||
        seen[static_cast<size_t>(id)] != 0) {
      return Status::Corruption("score order is not a permutation");
    }
    seen[static_cast<size_t>(id)] = 1;
  }
  // Adjacent-pair agreement with the strict-weak-order comparator is
  // enough: a total order has exactly one sorted permutation.
  const DescendingScore cmp{&scored, &scored.graph()};
  for (size_t i = 1; i < n; ++i) {
    if (cmp(ids[i], ids[i - 1])) {
      return Status::Corruption("score order violates the sort comparator");
    }
  }
  return ScoreOrder(ValidatedTag{}, scored, std::move(ids));
}

ScoreOrder::ScoreOrder(const ScoredEdges& scored, const ScoreOrder& base,
                       std::span<const EdgeId> base_to_next,
                       std::span<const EdgeId> dirty)
    : scored_(&scored) {
  const size_t n = static_cast<size_t>(scored.size());
  // 0 = clean, 1 = dirty (PatchSparse adds 2: dirty and collected).
  std::vector<uint8_t> state(n, 0);
  for (const EdgeId id : dirty) state[static_cast<size_t>(id)] = 1;
  const bool covered =
      dirty.size() * kDenseDeltaDivisor >= n
          ? PatchDense(scored, base.ids(), base_to_next, dirty, state, &ids_)
          : PatchSparse(scored, base.ids(), base_to_next, dirty, &state,
                        &ids_);
  if (!covered) {
    // Inconsistent patch inputs (a dirty list missing an inserted edge, a
    // stale base): clean + dirty does not cover the table. Degrade to the
    // full sort: correct, and visible on the counter so zero-sort tests
    // catch the misuse.
    ids_ = SortAll(scored);
  }
  // No g_sorts_performed bump otherwise: zero global sorts is the patch's
  // contract.
}

int64_t ScoreOrder::KForShare(double share) const {
  share = std::clamp(share, 0.0, 1.0);
  return static_cast<int64_t>(
      std::llround(share * static_cast<double>(size())));
}

BackboneMask ScoreOrder::PrefixMask(int64_t k) const {
  BackboneMask mask;
  mask.keep.assign(ids_.size(), false);
  const int64_t limit = std::clamp<int64_t>(k, 0, size());
  for (int64_t rank = 0; rank < limit; ++rank) {
    mask.keep[static_cast<size_t>(id_at(rank))] = true;
  }
  mask.kept = limit;
  return mask;
}

int64_t ScoreOrder::CountAbove(double threshold) const {
  const auto above = [&](EdgeId id) {
    return scored_->at(id).score > threshold;
  };
  return std::partition_point(ids_.begin(), ids_.end(), above) -
         ids_.begin();
}

int64_t ScoreOrder::SortsPerformed() {
  return g_sorts_performed.load(std::memory_order_relaxed);
}

SweepProfile BuildSweepProfile(const ScoreOrder& order) {
  const int64_t num_edges = order.size();
  SweepProfile profile;
  profile.covered_nodes.assign(static_cast<size_t>(num_edges) + 1, 0);
  profile.kept_weight.assign(static_cast<size_t>(num_edges) + 1, 0.0);

  double weight = 0.0;
  const WalkResult walk = WalkOrder(
      order, /*stop_at_connect=*/false,
      [&](int64_t rank, double edge_weight, int64_t covered) {
        weight += edge_weight;
        profile.covered_nodes[static_cast<size_t>(rank) + 1] = covered;
        profile.kept_weight[static_cast<size_t>(rank) + 1] = weight;
      });
  profile.connect_k = walk.connect_k;
  profile.target_nodes = walk.target_nodes;
  return profile;
}

BackboneMask TopK(const ScoreOrder& order, int64_t k) {
  return order.PrefixMask(k);
}

BackboneMask TopShare(const ScoreOrder& order, double share) {
  return order.PrefixMask(order.KForShare(share));
}

BackboneMask GrowUntilConnected(const ScoreOrder& order) {
  const WalkResult walk = WalkOrder(order, /*stop_at_connect=*/true,
                                    [](int64_t, double, int64_t) {});
  return order.PrefixMask(walk.connect_k);
}

}  // namespace netbone
