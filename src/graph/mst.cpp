#include "graph/mst.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "graph/dsu.hpp"
#include "util/assert.hpp"

namespace mwc::graph {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

MstResult prim_mst(std::size_t n,
                   const std::function<double(std::size_t, std::size_t)>& dist,
                   std::size_t root) {
  return prim_mst_with(n, dist, root);
}

MstResult kruskal_mst(std::size_t n, std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.w < b.w; });
  Dsu dsu(n);
  MstResult result;
  for (const Edge& e : edges) {
    MWC_DEBUG_ASSERT(e.u < n && e.v < n);
    if (dsu.unite(e.u, e.v)) {
      result.edges.push_back(e);
      result.total_weight += e.w;
      if (result.edges.size() + 1 == n) break;
    }
  }
  return result;
}

std::vector<std::size_t> mst_parents(std::size_t n,
                                     std::span<const Edge> edges,
                                     std::size_t root,
                                     std::vector<std::size_t>* order) {
  MWC_ASSERT(root < n);
  std::vector<std::vector<std::size_t>> adj(n);
  for (const Edge& e : edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<std::size_t> parent(n, kNone);
  std::vector<std::size_t> stack{root};
  parent[root] = root;
  if (order != nullptr) {
    order->clear();
    order->reserve(n);
  }
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    if (order != nullptr) order->push_back(u);
    for (std::size_t v : adj[u]) {
      if (parent[v] == kNone) {
        parent[v] = u;
        stack.push_back(v);
      }
    }
  }
  return parent;
}

}  // namespace mwc::graph
