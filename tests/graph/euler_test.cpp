#include "graph/euler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "geom/point.hpp"
#include "graph/mst.hpp"
#include "util/rng.hpp"

namespace mwc::graph {
namespace {

// Verifies that `walk` is a closed walk over exactly the edges of `edges`
// (as a multiset).
void expect_valid_circuit(const std::vector<Edge>& edges,
                          const std::vector<std::size_t>& walk,
                          std::size_t start) {
  ASSERT_EQ(walk.size(), edges.size() + 1);
  EXPECT_EQ(walk.front(), start);
  EXPECT_EQ(walk.back(), start);

  std::multiset<std::pair<std::size_t, std::size_t>> expected;
  for (const auto& e : edges)
    expected.insert(std::minmax(e.u, e.v));
  std::multiset<std::pair<std::size_t, std::size_t>> walked;
  for (std::size_t i = 0; i + 1 < walk.size(); ++i)
    walked.insert(std::minmax(walk[i], walk[i + 1]));
  EXPECT_EQ(expected, walked);
}

TEST(HasEulerianCircuit, EmptyGraph) {
  EXPECT_TRUE(has_eulerian_circuit({}));
}

TEST(HasEulerianCircuit, TriangleHasOne) {
  const std::vector<Edge> edges{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}};
  EXPECT_TRUE(has_eulerian_circuit(edges));
}

TEST(HasEulerianCircuit, PathHasNone) {
  const std::vector<Edge> edges{{0, 1, 1}, {1, 2, 1}};
  EXPECT_FALSE(has_eulerian_circuit(edges));  // endpoints have odd degree
}

TEST(HasEulerianCircuit, DisconnectedEvenComponentsFail) {
  const std::vector<Edge> edges{{0, 1, 1}, {1, 0, 1}, {2, 3, 1}, {3, 2, 1}};
  EXPECT_FALSE(has_eulerian_circuit(edges));
}

TEST(EulerianCircuit, Triangle) {
  const std::vector<Edge> edges{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}};
  const auto walk = eulerian_circuit(edges, 0);
  expect_valid_circuit(edges, walk, 0);
}

TEST(EulerianCircuit, EmptyEdgesSingleNode) {
  const auto walk = eulerian_circuit({}, 9);
  EXPECT_EQ(walk, std::vector<std::size_t>{9});
}

TEST(EulerianCircuit, MultiEdges) {
  // Two parallel edges 0-1: circuit 0,1,0.
  const std::vector<Edge> edges{{0, 1, 1}, {0, 1, 1}};
  const auto walk = eulerian_circuit(edges, 0);
  expect_valid_circuit(edges, walk, 0);
}

TEST(EulerianCircuit, TwoTrianglesSharingNode) {
  const std::vector<Edge> edges{{0, 1, 1}, {1, 2, 1}, {2, 0, 1},
                                {0, 3, 1}, {3, 4, 1}, {4, 0, 1}};
  const auto walk = eulerian_circuit(edges, 0);
  expect_valid_circuit(edges, walk, 0);
}

TEST(DoubledTreeCircuit, SingleEdge) {
  const std::vector<Edge> tree{{0, 1, 5.0}};
  const auto walk = doubled_tree_circuit(tree, 0);
  EXPECT_EQ(walk, (std::vector<std::size_t>{0, 1, 0}));
}

TEST(DoubledTreeCircuit, UsesEveryTreeEdgeTwice) {
  const std::vector<Edge> tree{{0, 1, 1}, {1, 2, 1}, {1, 3, 1}, {0, 4, 1}};
  const auto walk = doubled_tree_circuit(tree, 0);
  ASSERT_EQ(walk.size(), 2 * tree.size() + 1);
  std::map<std::pair<std::size_t, std::size_t>, int> uses;
  for (std::size_t i = 0; i + 1 < walk.size(); ++i)
    ++uses[std::minmax(walk[i], walk[i + 1])];
  for (const auto& e : tree)
    EXPECT_EQ(uses[std::minmax(e.u, e.v)], 2);
}

// Property: doubled circuits of random MSTs are valid.
class DoubledTreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DoubledTreeProperty, RandomMstCircuitsValid) {
  mwc::Rng rng(GetParam());
  const std::size_t n = 30;
  std::vector<mwc::geom::Point> pts;
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
  const auto mst = prim_mst(
      n, [&](std::size_t a, std::size_t b) {
        return mwc::geom::distance(pts[a], pts[b]);
      });
  const auto walk = doubled_tree_circuit(mst.edges, 0);
  ASSERT_EQ(walk.size(), 2 * mst.edges.size() + 1);
  EXPECT_EQ(walk.front(), 0u);
  EXPECT_EQ(walk.back(), 0u);
  // Every node appears.
  const std::set<std::size_t> visited(walk.begin(), walk.end());
  EXPECT_EQ(visited.size(), n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoubledTreeProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(ShortcutClosedWalk, RemovesRepeats) {
  const std::vector<std::size_t> walk{0, 1, 2, 1, 3, 1, 0};
  EXPECT_EQ(shortcut_closed_walk(walk),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ShortcutClosedWalk, Empty) {
  EXPECT_TRUE(shortcut_closed_walk(std::vector<std::size_t>{}).empty());
}

TEST(ShortcutClosedWalk, KeepsFirstOccurrenceOrder) {
  const std::vector<std::size_t> walk{5, 3, 5, 9, 3, 5};
  EXPECT_EQ(shortcut_closed_walk(walk), (std::vector<std::size_t>{5, 3, 9}));
}

}  // namespace
}  // namespace mwc::graph
