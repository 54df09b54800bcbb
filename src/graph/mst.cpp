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
  // CSR adjacency; each row keeps edge-list order, as push_back rows did.
  std::vector<std::size_t> offset(n + 1, 0);
  for (const Edge& e : edges) {
    ++offset[e.u + 1];
    ++offset[e.v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offset[v + 1] += offset[v];
  std::vector<std::size_t> nbr(offset[n]);
  std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
  for (const Edge& e : edges) {
    nbr[fill[e.u]++] = e.v;
    nbr[fill[e.v]++] = e.u;
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
    for (std::size_t h = offset[u]; h < offset[u + 1]; ++h) {
      const std::size_t v = nbr[h];
      if (parent[v] == kNone) {
        parent[v] = u;
        stack.push_back(v);
      }
    }
  }
  return parent;
}

}  // namespace mwc::graph
