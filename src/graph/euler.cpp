#include "graph/euler.hpp"

#include <algorithm>
#include <cstdint>

#include "graph/dsu.hpp"
#include "graph/local_graph.hpp"
#include "util/assert.hpp"

namespace mwc::graph {

namespace {

/// Hierholzer over `g` from `start`, which must touch an edge; per-vertex
/// cursors, O(E). Returns the circuit in local ids (first == last).
std::vector<std::uint32_t> local_circuit(const LocalGraph& g,
                                         std::size_t start) {
  const std::uint32_t s = g.local(start);
  MWC_ASSERT_MSG(g.degree(s) > 0,
                 "eulerian_circuit: start vertex must touch an edge");
  const std::size_t num_edges = g.nbr.size() / 2;
  std::vector<std::uint32_t> cursor(g.offset.begin(), g.offset.end() - 1);
  std::vector<char> used(num_edges, 0);
  std::vector<std::uint32_t> stack{s};
  std::vector<std::uint32_t> circuit;
  circuit.reserve(num_edges + 1);

  while (!stack.empty()) {
    const std::uint32_t u = stack.back();
    std::uint32_t& cur = cursor[u];
    while (cur < g.offset[u + 1] && used[g.edge[cur]]) ++cur;
    if (cur == g.offset[u + 1]) {
      circuit.push_back(u);
      stack.pop_back();
    } else {
      used[g.edge[cur]] = 1;
      stack.push_back(g.nbr[cur]);
    }
  }
  MWC_ASSERT_MSG(circuit.size() == num_edges + 1,
                 "graph has no Eulerian circuit (disconnected or odd degree)");
  std::reverse(circuit.begin(), circuit.end());
  return circuit;
}

std::vector<std::size_t> to_ids(const LocalGraph& g,
                                std::span<const std::uint32_t> walk) {
  std::vector<std::size_t> out(walk.size());
  for (std::size_t i = 0; i < walk.size(); ++i) out[i] = g.ids[walk[i]];
  return out;
}

}  // namespace

bool has_eulerian_circuit(std::span<const Edge> edges) {
  if (edges.empty()) return true;
  const LocalGraph g = local_graph(edges, edges.front().u);
  for (std::uint32_t u = 0; u < g.size(); ++u) {
    if (g.degree(u) % 2 != 0) return false;
  }
  // Connectivity over touched vertices.
  Dsu dsu(g.size());
  for (std::uint32_t u = 0; u < g.size(); ++u) {
    for (std::uint32_t h = g.offset[u]; h < g.offset[u + 1]; ++h)
      dsu.unite(u, g.nbr[h]);
  }
  return dsu.num_sets() == 1;
}

std::vector<std::size_t> eulerian_circuit(std::span<const Edge> edges,
                                          std::size_t start) {
  if (edges.empty()) return {start};
  const LocalGraph g = local_graph(edges, start);
  return to_ids(g, local_circuit(g, start));
}

std::vector<std::size_t> doubled_tree_circuit(std::span<const Edge> tree_edges,
                                              std::size_t start) {
  if (tree_edges.empty()) return {start};
  const LocalGraph g = local_graph(tree_edges, start, /*copies=*/2);
  return to_ids(g, local_circuit(g, start));
}

std::vector<std::size_t> doubled_tree_tour(std::span<const Edge> tree_edges,
                                           std::size_t start) {
  if (tree_edges.empty()) return {start};
  const LocalGraph g = local_graph(tree_edges, start, /*copies=*/2);
  std::vector<char> seen(g.size(), 0);
  std::vector<std::size_t> tour;
  tour.reserve(g.size());
  for (const std::uint32_t v : local_circuit(g, start)) {
    if (seen[v]) continue;
    seen[v] = 1;
    tour.push_back(g.ids[v]);
  }
  return tour;
}

std::vector<std::size_t> shortcut_closed_walk(
    std::span<const std::size_t> walk) {
  std::vector<std::size_t> tour;
  if (walk.empty()) return tour;
  std::vector<std::size_t> ids(walk.begin(), walk.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<char> seen(ids.size(), 0);
  tour.reserve(ids.size());
  for (const std::size_t v : walk) {
    const auto k = std::lower_bound(ids.begin(), ids.end(), v) - ids.begin();
    if (seen[k]) continue;
    seen[k] = 1;
    tour.push_back(v);
  }
  return tour;
}

}  // namespace mwc::graph
