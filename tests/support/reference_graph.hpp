// Hash-map reference forms of the tree and Euler-tour walks in graph/,
// kept only as test oracles. The library's versions run over flat CSR
// arrays; these keep the original unordered_map/unordered_set
// bookkeeping so tests can compare the two element for element: the
// RootedTree discovery order and preorder, the Hierholzer circuit and
// the first-occurrence shortcut. Header-only and gtest-free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/mst.hpp"
#include "util/assert.hpp"

namespace mwc::testing {

/// Node discovery of graph::RootedTree: DFS from the root over an
/// adjacency kept in edge-list order, each node appended when first seen.
inline std::vector<std::size_t> reference_tree_nodes(
    std::size_t root, std::span<const graph::Edge> edges) {
  std::unordered_map<std::size_t, std::vector<std::size_t>> adj;
  for (const graph::Edge& e : edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<std::size_t> nodes{root};
  std::unordered_set<std::size_t> seen{root};
  std::vector<std::size_t> stack{root};
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    const auto it = adj.find(u);
    if (it == adj.end()) continue;
    for (std::size_t v : it->second) {
      if (seen.insert(v).second) {
        nodes.push_back(v);
        stack.push_back(v);
      }
    }
  }
  return nodes;
}

/// graph::RootedTree::preorder: children pushed in reverse so they pop in
/// edge-insertion order.
inline std::vector<std::size_t> reference_preorder(
    std::size_t root, std::span<const graph::Edge> edges) {
  std::unordered_map<std::size_t, std::vector<std::size_t>> adj;
  for (const graph::Edge& e : edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<std::size_t> order;
  std::unordered_set<std::size_t> seen{root};
  std::vector<std::size_t> stack{root};
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    order.push_back(u);
    const auto it = adj.find(u);
    if (it == adj.end()) continue;
    const auto& nbrs = it->second;
    for (auto rit = nbrs.rbegin(); rit != nbrs.rend(); ++rit) {
      if (seen.insert(*rit).second) stack.push_back(*rit);
    }
  }
  return order;
}

/// graph::RootedTree::valid: k nodes, k - 1 edges, every endpoint
/// reachable from the root.
inline bool reference_tree_valid(std::size_t root,
                                 std::span<const graph::Edge> edges) {
  const auto nodes = reference_tree_nodes(root, edges);
  if (nodes.size() != edges.size() + 1) return false;
  const std::unordered_set<std::size_t> node_set(nodes.begin(), nodes.end());
  for (const graph::Edge& e : edges)
    if (!node_set.count(e.u) || !node_set.count(e.v)) return false;
  return true;
}

/// graph::eulerian_circuit: Hierholzer over a multigraph compacted to
/// the touched vertices in first-appearance order.
inline std::vector<std::size_t> reference_eulerian_circuit(
    std::span<const graph::Edge> edges, std::size_t start) {
  if (edges.empty()) return {start};
  std::unordered_map<std::size_t, std::size_t> to_local;
  std::vector<std::size_t> to_global;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj;
  const auto local = [&](std::size_t g) {
    const auto [it, inserted] = to_local.try_emplace(g, to_global.size());
    if (inserted) {
      to_global.push_back(g);
      adj.emplace_back();
    }
    return it->second;
  };
  std::size_t edge_id = 0;
  for (const graph::Edge& e : edges) {
    const std::size_t u = local(e.u);
    const std::size_t v = local(e.v);
    adj[u].emplace_back(v, edge_id);
    adj[v].emplace_back(u, edge_id);
    ++edge_id;
  }
  const auto it = to_local.find(start);
  MWC_ASSERT(it != to_local.end());

  std::vector<std::size_t> cursor(adj.size(), 0);
  std::vector<bool> used(edges.size(), false);
  std::vector<std::size_t> stack{it->second};
  std::vector<std::size_t> circuit;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    auto& cur = cursor[u];
    while (cur < adj[u].size() && used[adj[u][cur].second]) ++cur;
    if (cur == adj[u].size()) {
      circuit.push_back(to_global[u]);
      stack.pop_back();
    } else {
      const auto [v, id] = adj[u][cur];
      used[id] = true;
      stack.push_back(v);
    }
  }
  MWC_ASSERT(circuit.size() == edges.size() + 1);
  std::reverse(circuit.begin(), circuit.end());
  return circuit;
}

/// graph::doubled_tree_circuit: every edge twice, then the circuit.
inline std::vector<std::size_t> reference_doubled_tree_circuit(
    std::span<const graph::Edge> tree_edges, std::size_t start) {
  if (tree_edges.empty()) return {start};
  std::vector<graph::Edge> doubled;
  for (const graph::Edge& e : tree_edges) {
    doubled.push_back(e);
    doubled.push_back(e);
  }
  return reference_eulerian_circuit(doubled, start);
}

/// graph::shortcut_closed_walk: first occurrences, in walk order.
inline std::vector<std::size_t> reference_shortcut(
    std::span<const std::size_t> walk) {
  std::vector<std::size_t> tour;
  std::unordered_set<std::size_t> seen;
  for (std::size_t v : walk)
    if (seen.insert(v).second) tour.push_back(v);
  return tour;
}

}  // namespace mwc::testing
