// Copyright 2026 The netbone Authors.
//
// Disjoint-set union with path halving and union by size. Used by the
// Kruskal maximum spanning tree (paper Sec. III-B) and the Doubly
// Stochastic "grow until connected" criterion.

#ifndef NETBONE_GRAPH_UNION_FIND_H_
#define NETBONE_GRAPH_UNION_FIND_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace netbone {

/// Disjoint-set forest over dense node ids [0, n). Parents and set sizes
/// are NodeId-width: a set never holds more nodes than a graph has, and
/// the narrower arrays halve the bytes each random probe of the sweep
/// walk (core/sweep.h) pulls into cache.
class UnionFind {
 public:
  /// Creates n singleton sets.
  explicit UnionFind(NodeId n)
      : parent_(static_cast<size_t>(n)), size_(static_cast<size_t>(n), 1),
        num_sets_(n) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }

  /// Representative of x's set (path halving).
  NodeId Find(NodeId x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  /// Merges the sets of a and b; returns false when already merged.
  bool Union(NodeId a, NodeId b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (size_[static_cast<size_t>(a)] < size_[static_cast<size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<size_t>(b)] = a;
    size_[static_cast<size_t>(a)] += size_[static_cast<size_t>(b)];
    --num_sets_;
    return true;
  }

  /// True when a and b share a set.
  bool Connected(NodeId a, NodeId b) { return Find(a) == Find(b); }

  /// Size of x's set.
  int64_t SetSize(NodeId x) { return size_[static_cast<size_t>(Find(x))]; }

  /// Current number of disjoint sets.
  int64_t num_sets() const { return num_sets_; }

  /// Hints the cache to load x's parent slot, for callers that know their
  /// next probes a few steps ahead.
  void Prefetch(NodeId x) const {
    __builtin_prefetch(&parent_[static_cast<size_t>(x)]);
  }

 private:
  std::vector<NodeId> parent_;
  std::vector<NodeId> size_;
  int64_t num_sets_;
};

}  // namespace netbone

#endif  // NETBONE_GRAPH_UNION_FIND_H_
