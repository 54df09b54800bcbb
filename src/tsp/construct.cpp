#include "tsp/construct.hpp"

#include <algorithm>
#include <limits>

#include "graph/dsu.hpp"
#include "graph/euler.hpp"
#include "util/assert.hpp"

namespace mwc::tsp {

Tour tree_to_tour(std::span<const graph::Edge> tree_edges, std::size_t root) {
  return Tour(graph::doubled_tree_tour(tree_edges, root));
}

Tour double_tree_tour(const DistanceView& distances, std::size_t start) {
  const std::size_t n = distances.size();
  if (n == 0) return Tour{};
  MWC_ASSERT(start < n);
  if (n == 1) return Tour({start});

  const auto mst = graph::prim_mst_with(
      n, [&](std::size_t i, std::size_t j) { return distances(i, j); },
      start);
  return tree_to_tour(mst.edges, start);
}

Tour double_tree_tour(std::span<const geom::Point> points, std::size_t start) {
  return double_tree_tour(DistanceView::direct(points), start);
}

Tour christofides_tour(const DistanceView& distances, std::size_t start) {
  const std::size_t n = distances.size();
  if (n == 0) return Tour{};
  MWC_ASSERT(start < n);
  if (n == 1) return Tour({start});
  if (n == 2) return Tour({start, start == 0 ? std::size_t{1} : 0});

  const auto mst = graph::prim_mst_with(
      n, [&](std::size_t i, std::size_t j) { return distances(i, j); },
      start);

  // Odd-degree vertices of the MST (always an even count).
  std::vector<int> degree(n, 0);
  for (const auto& e : mst.edges) {
    ++degree[e.u];
    ++degree[e.v];
  }
  std::vector<std::size_t> odd;
  for (std::size_t v = 0; v < n; ++v)
    if (degree[v] % 2 != 0) odd.push_back(v);
  MWC_DEBUG_ASSERT(odd.size() % 2 == 0);

  // Greedy matching on the odd set: repeatedly take the globally
  // shortest pair of unmatched odd vertices.
  struct Pair {
    std::size_t a, b;
    double w;
  };
  std::vector<Pair> pairs;
  pairs.reserve(odd.size() * (odd.size() - 1) / 2);
  for (std::size_t i = 0; i < odd.size(); ++i)
    for (std::size_t j = i + 1; j < odd.size(); ++j)
      pairs.push_back({odd[i], odd[j], distances(odd[i], odd[j])});
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& x, const Pair& y) { return x.w < y.w; });

  std::vector<graph::Edge> multigraph = mst.edges;
  std::vector<bool> matched(n, false);
  std::size_t remaining = odd.size();
  for (const Pair& p : pairs) {
    if (remaining == 0) break;
    if (matched[p.a] || matched[p.b]) continue;
    matched[p.a] = matched[p.b] = true;
    multigraph.push_back(graph::Edge{p.a, p.b, p.w});
    remaining -= 2;
  }
  MWC_DEBUG_ASSERT(remaining == 0);

  // All degrees are now even; Euler tour + shortcut.
  const auto walk = graph::eulerian_circuit(multigraph, start);
  return Tour(graph::shortcut_closed_walk(walk));
}

Tour christofides_tour(std::span<const geom::Point> points,
                       std::size_t start) {
  return christofides_tour(DistanceView::direct(points), start);
}

Tour nearest_neighbor_tour(std::span<const geom::Point> points,
                           std::size_t start) {
  const std::size_t n = points.size();
  if (n == 0) return Tour{};
  MWC_ASSERT(start < n);

  std::vector<bool> visited(n, false);
  std::vector<std::size_t> order;
  order.reserve(n);
  std::size_t current = start;
  visited[current] = true;
  order.push_back(current);
  for (std::size_t step = 1; step < n; ++step) {
    std::size_t best = n;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t v = 0; v < n; ++v) {
      if (visited[v]) continue;
      const double d2 = geom::distance2(points[current], points[v]);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = v;
      }
    }
    visited[best] = true;
    order.push_back(best);
    current = best;
  }
  return Tour(std::move(order));
}

Tour greedy_edge_tour(std::span<const geom::Point> points) {
  const std::size_t n = points.size();
  if (n == 0) return Tour{};
  if (n == 1) return Tour({0});
  if (n == 2) return Tour({0, 1});

  struct E {
    std::size_t u, v;
    double w;
  };
  std::vector<E> edges;
  edges.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      edges.push_back({i, j, geom::distance(points[i], points[j])});
  std::sort(edges.begin(), edges.end(),
            [](const E& a, const E& b) { return a.w < b.w; });

  std::vector<int> degree(n, 0);
  graph::Dsu dsu(n);
  std::vector<std::vector<std::size_t>> adj(n);
  std::size_t accepted = 0;
  for (const E& e : edges) {
    if (accepted == n) break;
    if (degree[e.u] >= 2 || degree[e.v] >= 2) continue;
    const bool closes_cycle = dsu.connected(e.u, e.v);
    if (closes_cycle && accepted + 1 != n) continue;  // only the final edge may
    dsu.unite(e.u, e.v);
    ++degree[e.u];
    ++degree[e.v];
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
    ++accepted;
  }
  MWC_ASSERT_MSG(accepted == n, "greedy edge construction failed to close");

  // Walk the Hamiltonian cycle.
  std::vector<std::size_t> order;
  order.reserve(n);
  std::size_t prev = n, cur = 0;
  for (std::size_t step = 0; step < n; ++step) {
    order.push_back(cur);
    const std::size_t next =
        (adj[cur][0] != prev || adj[cur].size() == 1) ? adj[cur][0]
                                                      : adj[cur][1];
    prev = cur;
    cur = next;
  }
  return Tour(std::move(order));
}

}  // namespace mwc::tsp
