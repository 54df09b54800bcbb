// Eulerian circuits of small multigraphs (Hierholzer's algorithm).
//
// Every routine relabels the touched ids to dense local ids first
// (graph/local_graph.hpp) and walks flat CSR rows, which keep the edge
// list's order, so results do not depend on how sparse the ids are.
//
// Two places in the paper need Euler tours: Algorithm 2 walks the doubled
// q-rooted MSF trees, and the proof of Lemma 3 merges per-depot tour groups
// into one Eulerian circuit before shortcutting. The library exposes the
// general multigraph routine so both uses (and the tests for the lemma's
// construction) share one implementation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/mst.hpp"

namespace mwc::graph {

/// True iff every vertex touched by `edges` has even degree and all
/// touched vertices are in one connected component.
bool has_eulerian_circuit(std::span<const Edge> edges);

/// Eulerian circuit of the multigraph given by `edges`, starting and
/// ending at `start`. `start` must touch at least one edge unless `edges`
/// is empty (then the result is just {start}). Precondition: an Eulerian
/// circuit exists. Returns the vertex sequence (first == last == start).
std::vector<std::size_t> eulerian_circuit(std::span<const Edge> edges,
                                          std::size_t start);

/// Doubles each edge (making all degrees even) and returns the Eulerian
/// circuit of the doubled multigraph from `start` — the classic step of
/// the 2-approximation.
std::vector<std::size_t> doubled_tree_circuit(std::span<const Edge> tree_edges,
                                              std::size_t start);

/// shortcut_closed_walk(doubled_tree_circuit(tree_edges, start)), the
/// double-tree tour of Algorithm 2, walked over the tree's local ids so
/// the shortcut needs no id lookup.
std::vector<std::size_t> doubled_tree_tour(std::span<const Edge> tree_edges,
                                           std::size_t start);

/// Removes repeated vertices from a closed walk, keeping first occurrences
/// (the triangle-inequality "shortcut"). The returned sequence lists each
/// distinct vertex once, starting with walk.front(); interpret it as a
/// closed tour. An empty walk yields an empty tour.
std::vector<std::size_t> shortcut_closed_walk(
    std::span<const std::size_t> walk);

}  // namespace mwc::graph
