// The flat-array tree and Euler walks against their hash-map reference
// forms (tests/support/reference_graph.hpp), element for element: tree
// discovery order, preorder, validity, Hierholzer circuits, doubled-tree
// circuits and shortcuts. Ids are dense, sparse in a wide space, or
// permuted, so the relabelling cannot lean on small contiguous ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "../support/reference_graph.hpp"
#include "graph/euler.hpp"
#include "graph/forest.hpp"
#include "graph/mst.hpp"
#include "tsp/construct.hpp"
#include "util/rng.hpp"

namespace mwc::graph {
namespace {

using testing::reference_doubled_tree_circuit;
using testing::reference_eulerian_circuit;
using testing::reference_preorder;
using testing::reference_shortcut;
using testing::reference_tree_nodes;
using testing::reference_tree_valid;

/// Uniform index in [0, n).
std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// How a test spreads its node labels over the id space.
enum class Ids { kDense, kPermuted, kSparse };

std::vector<std::size_t> labels(std::size_t k, Ids ids, Rng& rng) {
  std::vector<std::size_t> label(k);
  std::iota(label.begin(), label.end(), std::size_t{0});
  if (ids == Ids::kDense) return label;
  shuffle(label.begin(), label.end(), rng);
  if (ids == Ids::kSparse) {
    // Distinct, unordered and far apart: 1e12 + 7919·label + noise.
    for (auto& v : label)
      v = 1'000'000'000'000ULL + 7919 * v + pick(rng, 7000);
  }
  return label;
}

/// A random tree on k nodes (node i > 0 hangs off a random earlier node),
/// with shuffled edge order, random orientation and relabelled ids.
std::vector<Edge> random_tree(std::size_t k, Ids ids, Rng& rng,
                              std::size_t* root) {
  const auto label = labels(k, ids, rng);
  std::vector<Edge> edges;
  for (std::size_t i = 1; i < k; ++i) {
    std::size_t a = label[pick(rng, i)];
    std::size_t b = label[i];
    if (pick(rng, 2) == 0) std::swap(a, b);
    edges.push_back(Edge{a, b, rng.uniform(0.0, 10.0)});
  }
  shuffle(edges.begin(), edges.end(), rng);
  *root = label[pick(rng, k)];
  return edges;
}

void expect_tree_walks_match(std::size_t root, const std::vector<Edge>& edges) {
  const RootedTree tree(root, edges);
  EXPECT_EQ(tree.nodes(), reference_tree_nodes(root, edges));
  EXPECT_EQ(tree.preorder(), reference_preorder(root, edges));
  EXPECT_EQ(tree.valid(), reference_tree_valid(root, edges));
  const auto circuit = reference_doubled_tree_circuit(edges, root);
  EXPECT_EQ(doubled_tree_circuit(edges, root), circuit);
  EXPECT_EQ(doubled_tree_tour(edges, root), reference_shortcut(circuit));
  EXPECT_EQ(tsp::tree_to_tour(edges, root).order(),
            reference_shortcut(circuit));
}

TEST(WalkReference, SingleRoot) {
  expect_tree_walks_match(0, {});
  expect_tree_walks_match(123'456'789'012ULL, {});
}

TEST(WalkReference, PathsAndStars) {
  Rng rng(11);
  for (const Ids ids : {Ids::kDense, Ids::kPermuted, Ids::kSparse}) {
    for (const std::size_t k : {2, 3, 17, 200}) {
      const auto label = labels(k, ids, rng);
      std::vector<Edge> path;
      std::vector<Edge> star;
      for (std::size_t i = 1; i < k; ++i) {
        path.push_back(Edge{label[i - 1], label[i], 1.0});
        star.push_back(Edge{label[0], label[i], 1.0});
      }
      expect_tree_walks_match(label[0], path);
      expect_tree_walks_match(label[k - 1], path);  // rooted at the far end
      expect_tree_walks_match(label[k / 2], path);  // rooted mid-path
      expect_tree_walks_match(label[0], star);
      expect_tree_walks_match(label[k - 1], star);  // rooted at a leaf
    }
  }
}

TEST(WalkReference, RandomTrees) {
  Rng rng(12);
  for (const Ids ids : {Ids::kDense, Ids::kPermuted, Ids::kSparse}) {
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t k = 1 + pick(rng, trial < 50 ? 40 : 1500);
      std::size_t root = 0;
      const auto edges = random_tree(k, ids, rng, &root);
      expect_tree_walks_match(root, edges);
    }
  }
}

TEST(WalkReference, InvalidTreesAgreeOnValidity) {
  Rng rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    std::size_t root = 0;
    auto edges = random_tree(3 + pick(rng, 30), Ids::kSparse, rng,
                             &root);
    // A cycle (an extra edge) or a detached edge.
    if (trial % 2 == 0) {
      edges.push_back(Edge{edges.front().u, edges.back().v, 1.0});
    } else {
      edges.back() = Edge{7, 9, 1.0};
    }
    const RootedTree tree(root, edges);
    EXPECT_FALSE(tree.valid());
    EXPECT_EQ(tree.valid(), reference_tree_valid(root, edges));
    EXPECT_EQ(tree.nodes(), reference_tree_nodes(root, edges));
    EXPECT_EQ(tree.preorder(), reference_preorder(root, edges));
  }
}

/// A tree plus a random matching on its odd-degree vertices, drawn with
/// replacement so matched pairs often repeat a tree edge or each other:
/// the multigraph Christofides hands to eulerian_circuit.
std::vector<Edge> christofides_multigraph(std::size_t k, Ids ids, Rng& rng,
                                          std::size_t* start) {
  auto edges = random_tree(k, ids, rng, start);
  std::vector<std::size_t> nodes;
  for (const Edge& e : edges) {
    nodes.push_back(e.u);
    nodes.push_back(e.v);
  }
  std::sort(nodes.begin(), nodes.end());
  std::vector<std::size_t> odd;
  for (std::size_t i = 0; i < nodes.size();) {
    std::size_t j = i;
    while (j < nodes.size() && nodes[j] == nodes[i]) ++j;
    if ((j - i) % 2 != 0) odd.push_back(nodes[i]);
    i = j;
  }
  shuffle(odd.begin(), odd.end(), rng);
  for (std::size_t i = 0; i + 1 < odd.size(); i += 2) {
    edges.push_back(Edge{odd[i], odd[i + 1], 1.0});
    // Now and then the same pair twice more: still even degrees.
    if (pick(rng, 4) == 0) {
      edges.push_back(Edge{odd[i + 1], odd[i], 1.0});
      edges.push_back(Edge{odd[i], odd[i + 1], 1.0});
    }
  }
  // Repeat some tree edges twice (degrees stay even).
  const std::size_t tree_edges = k - 1;
  for (std::size_t i = 0; i < tree_edges; i += 3)
    for (int rep = 0; rep < 2; ++rep) edges.push_back(edges[i]);
  return edges;
}

TEST(WalkReference, ChristofidesMultigraphs) {
  Rng rng(14);
  for (const Ids ids : {Ids::kDense, Ids::kPermuted, Ids::kSparse}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::size_t start = 0;
      const auto edges =
          christofides_multigraph(2 + pick(rng, 300), ids, rng, &start);
      ASSERT_TRUE(has_eulerian_circuit(edges));
      const auto circuit = reference_eulerian_circuit(edges, start);
      EXPECT_EQ(eulerian_circuit(edges, start), circuit);
      EXPECT_EQ(shortcut_closed_walk(circuit), reference_shortcut(circuit));
    }
  }
}

TEST(WalkReference, ClosedWalkMultigraphsWithSelfLoops) {
  // The edges of a random closed walk (self-loops included) form an
  // Eulerian multigraph in any order.
  Rng rng(15);
  for (int trial = 0; trial < 60; ++trial) {
    const auto label = labels(2 + pick(rng, 50), Ids::kSparse, rng);
    std::vector<std::size_t> walk{label[0]};
    const std::size_t steps = 1 + pick(rng, 200);
    for (std::size_t s = 0; s + 1 < steps; ++s)
      walk.push_back(label[pick(rng, label.size())]);
    walk.push_back(label[0]);
    std::vector<Edge> edges;
    for (std::size_t i = 0; i + 1 < walk.size(); ++i)
      edges.push_back(Edge{walk[i], walk[i + 1], 1.0});
    shuffle(edges.begin(), edges.end(), rng);
    const std::size_t start = edges[pick(rng, edges.size())].v;
    const auto circuit = reference_eulerian_circuit(edges, start);
    EXPECT_EQ(eulerian_circuit(edges, start), circuit);
    EXPECT_EQ(shortcut_closed_walk(walk), reference_shortcut(walk));
  }
}

}  // namespace
}  // namespace mwc::graph
