// Rooted trees and forests over index-identified nodes.
//
// The q-rooted MSF (Algorithm 1 of the paper) produces q disjoint trees,
// each rooted at a depot; Algorithm 2 then walks each tree. `RootedTree`
// stores adjacency plus the root and offers the depth-first preorder that
// the double-tree shortcut uses (preorder of a tree = the order in which
// an Euler tour of the doubled tree first visits each node).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/mst.hpp"

namespace mwc::graph {

class RootedTree {
 public:
  RootedTree() = default;

  /// Builds from an undirected edge list; `root` must be a node of the
  /// tree. Nodes are arbitrary indices (not necessarily 0..k); the walks
  /// relabel them to the tree's own dense local ids (graph/local_graph)
  /// and allocate O(k) whatever the ids' range.
  RootedTree(std::size_t root, std::span<const Edge> edges);

  std::size_t root() const noexcept { return root_; }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  double total_weight() const noexcept { return total_weight_; }
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// All node indices of the tree (root first, then discovery order).
  const std::vector<std::size_t>& nodes() const noexcept { return nodes_; }

  /// Depth-first preorder starting at the root. Children are visited in
  /// edge-insertion order; deterministic for a deterministic edge list.
  std::vector<std::size_t> preorder() const;

  /// True when the edges form a connected acyclic graph containing root.
  bool valid() const;

 private:
  std::size_t root_ = 0;
  double total_weight_ = 0.0;
  std::vector<Edge> edges_;
  std::vector<std::size_t> nodes_;  // discovery order, root first
  bool reaches_all_ = false;  // every endpoint is reachable from the root
};

/// A forest of rooted trees (the output of the q-rooted MSF).
struct RootedForest {
  std::vector<RootedTree> trees;

  double total_weight() const noexcept {
    double sum = 0.0;
    for (const auto& t : trees) sum += t.total_weight();
    return sum;
  }

  std::size_t total_nodes() const noexcept {
    std::size_t sum = 0;
    for (const auto& t : trees) sum += t.num_nodes();
    return sum;
  }
};

}  // namespace mwc::graph
