#include "graph/components.h"

#include <algorithm>

#include "graph/union_find.h"

namespace netbone {

Components ConnectedComponents(const Graph& graph) {
  const NodeId n = graph.num_nodes();
  UnionFind uf(n);
  for (const Edge& e : graph.edges()) uf.Union(e.src, e.dst);

  Components out;
  out.component.assign(static_cast<size_t>(n), -1);
  std::vector<int32_t> root_to_component(static_cast<size_t>(n), -1);
  std::vector<int64_t> sizes;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId root = uf.Find(v);
    int32_t& mapped = root_to_component[static_cast<size_t>(root)];
    if (mapped < 0) {
      mapped = out.count++;
      sizes.push_back(0);
    }
    out.component[static_cast<size_t>(v)] = mapped;
    sizes[static_cast<size_t>(mapped)]++;
  }
  out.giant_size =
      sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
  return out;
}

bool IsConnected(const Graph& graph) {
  if (graph.num_nodes() == 0) return true;
  return ConnectedComponents(graph).count == 1;
}

}  // namespace netbone
