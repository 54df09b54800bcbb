// Flat adjacency over the vertices an edge list touches.
//
// The tree walks (RootedTree discovery, Hierholzer, the doubled-tree
// shortcut) take edge lists whose ids are arbitrary — dispatch-local
// combined ids in practice, sparse in tests. LocalGraph relabels the
// touched ids to dense local ids — through a flag array over their range
// when it is at most a few times their count, as in a dispatch view,
// else by sorting — then stores the adjacency in CSR form, so a walk
// needs only flat arrays and `std::vector<char>` seen flags: no hashing
// and no per-node allocation, O(k + |E|) memory for k touched ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/mst.hpp"

namespace mwc::graph {

struct LocalGraph {
  std::vector<std::size_t> ids;       ///< local -> id, ascending
  std::vector<std::uint32_t> offset;  ///< row k is [offset[k], offset[k+1])
  std::vector<std::uint32_t> nbr;     ///< local neighbour per half-edge
  std::vector<std::uint32_t> edge;    ///< edge index per half-edge

  std::size_t size() const noexcept { return ids.size(); }
  std::size_t degree(std::uint32_t k) const noexcept {
    return offset[k + 1] - offset[k];
  }
  /// Local id of `id`; it must be one of `ids`.
  std::uint32_t local(std::size_t id) const;
};

/// The multigraph of `edges` over their endpoints plus `extra` (a root or
/// start vertex that may touch no edge). Each edge appears `copies` times
/// in place — copy c of edge i has edge index copies·i + c — and every
/// half-edge lands in its row in edge-list order: copy j of edge (u, v)
/// adds (v, j) to u's row, then (u, j) to v's. A row therefore reads
/// exactly like a per-vertex push_back adjacency built from the list (the
/// doubled tree is `copies` = 2), so walks over it visit the same
/// sequence.
LocalGraph local_graph(std::span<const Edge> edges, std::size_t extra,
                       std::size_t copies = 1);

}  // namespace mwc::graph
