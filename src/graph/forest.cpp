#include "graph/forest.hpp"

#include <cstdint>

#include "graph/local_graph.hpp"

namespace mwc::graph {

RootedTree::RootedTree(std::size_t root, std::span<const Edge> edges)
    : root_(root), edges_(edges.begin(), edges.end()) {
  for (const Edge& e : edges_) total_weight_ += e.w;

  // Discover nodes by DFS from the root so `nodes_` is deterministic and
  // `valid()` can compare reachable count to edge count.
  const LocalGraph g = local_graph(edges_, root_);
  std::vector<char> seen(g.size(), 0);
  const std::uint32_t r = g.local(root_);
  seen[r] = 1;
  nodes_.reserve(g.size());
  nodes_.push_back(root_);
  std::vector<std::uint32_t> stack{r};
  while (!stack.empty()) {
    const std::uint32_t u = stack.back();
    stack.pop_back();
    for (std::uint32_t h = g.offset[u]; h < g.offset[u + 1]; ++h) {
      const std::uint32_t v = g.nbr[h];
      if (seen[v]) continue;
      seen[v] = 1;
      nodes_.push_back(g.ids[v]);
      stack.push_back(v);
    }
  }
  reaches_all_ = nodes_.size() == g.size();
}

std::vector<std::size_t> RootedTree::preorder() const {
  const LocalGraph g = local_graph(edges_, root_);
  std::vector<std::size_t> order;
  order.reserve(nodes_.size());
  std::vector<char> seen(g.size(), 0);
  const std::uint32_t r = g.local(root_);
  seen[r] = 1;
  // Explicit stack DFS; children pushed in reverse so they pop in
  // insertion order.
  std::vector<std::uint32_t> stack{r};
  while (!stack.empty()) {
    const std::uint32_t u = stack.back();
    stack.pop_back();
    order.push_back(g.ids[u]);
    for (std::uint32_t h = g.offset[u + 1]; h-- > g.offset[u];) {
      const std::uint32_t v = g.nbr[h];
      if (seen[v]) continue;
      seen[v] = 1;
      stack.push_back(v);
    }
  }
  return order;
}

bool RootedTree::valid() const {
  // A tree on k nodes has k-1 edges and all nodes reachable from the root.
  // nodes_ was built by reachability, so membership implies connectivity;
  // reaches_all_ says no edge mentions a node outside the reachable set.
  return !nodes_.empty() && nodes_.size() == edges_.size() + 1 &&
         reaches_all_;
}

}  // namespace mwc::graph
