#include "graph/mst.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geom/point.hpp"
#include "graph/dsu.hpp"
#include "util/rng.hpp"

namespace mwc::graph {
namespace {

std::vector<geom::Point> random_points(std::size_t n, std::uint64_t seed) {
  mwc::Rng rng(seed);
  std::vector<geom::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  return pts;
}

/// Prim over the complete Euclidean graph on `pts`.
MstResult euclidean_mst(const std::vector<geom::Point>& pts,
                        std::size_t root = 0) {
  return prim_mst(
      pts.size(),
      [&](std::size_t i, std::size_t j) {
        return geom::distance(pts[i], pts[j]);
      },
      root);
}

bool is_spanning_tree(std::size_t n, const std::vector<Edge>& edges) {
  if (n == 0) return edges.empty();
  if (edges.size() != n - 1) return false;
  Dsu dsu(n);
  for (const auto& e : edges) {
    if (!dsu.unite(e.u, e.v)) return false;  // cycle
  }
  return dsu.num_sets() == 1;
}

TEST(PrimMst, EmptyAndSingle) {
  const auto dist = [](std::size_t, std::size_t) { return 1.0; };
  EXPECT_EQ(prim_mst(0, dist).edges.size(), 0u);
  const auto single = prim_mst(1, dist);
  EXPECT_EQ(single.edges.size(), 0u);
  EXPECT_EQ(single.total_weight, 0.0);
}

TEST(PrimMst, KnownTriangle) {
  // Triangle with weights 1, 2, 3 -> MST weight 3.
  const std::vector<geom::Point> pts{{0, 0}, {1, 0}, {0, 2}};
  const auto mst = euclidean_mst(pts);
  EXPECT_EQ(mst.edges.size(), 2u);
  EXPECT_NEAR(mst.total_weight, 3.0, 1e-12);
}

TEST(PrimMst, ProducesSpanningTree) {
  const auto pts = random_points(50, 1);
  const auto mst = euclidean_mst(pts);
  EXPECT_TRUE(is_spanning_tree(pts.size(), mst.edges));
}

TEST(PrimMst, RootChoiceDoesNotChangeWeight) {
  const auto pts = random_points(30, 2);
  const auto w0 = euclidean_mst(pts, 0).total_weight;
  const auto w7 = euclidean_mst(pts, 7).total_weight;
  const auto w29 = euclidean_mst(pts, 29).total_weight;
  EXPECT_NEAR(w0, w7, 1e-9);
  EXPECT_NEAR(w0, w29, 1e-9);
}

TEST(KruskalMst, KnownGraph) {
  // 4-node graph.
  std::vector<Edge> edges{{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 1.5},
                          {0, 3, 4.0}, {0, 2, 2.5}};
  const auto mst = kruskal_mst(4, edges);
  EXPECT_EQ(mst.edges.size(), 3u);
  EXPECT_NEAR(mst.total_weight, 4.5, 1e-12);
}

TEST(KruskalMst, DisconnectedYieldsForest) {
  std::vector<Edge> edges{{0, 1, 1.0}, {2, 3, 2.0}};
  const auto msf = kruskal_mst(4, edges);
  EXPECT_EQ(msf.edges.size(), 2u);
  EXPECT_NEAR(msf.total_weight, 3.0, 1e-12);
}

// Property: Prim and Kruskal agree on complete Euclidean graphs.
class MstAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MstAgreement, PrimEqualsKruskal) {
  const auto pts = random_points(40, GetParam());
  const auto prim = euclidean_mst(pts);

  std::vector<Edge> all_edges;
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = i + 1; j < pts.size(); ++j)
      all_edges.push_back({i, j, geom::distance(pts[i], pts[j])});
  const auto kruskal = kruskal_mst(pts.size(), all_edges);

  EXPECT_NEAR(prim.total_weight, kruskal.total_weight, 1e-9);
  EXPECT_TRUE(is_spanning_tree(pts.size(), prim.edges));
  EXPECT_TRUE(is_spanning_tree(pts.size(), kruskal.edges));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstAgreement,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(MstParents, RootIsItsOwnParent) {
  const auto pts = random_points(20, 9);
  const auto mst = euclidean_mst(pts);
  std::vector<std::size_t> order;
  const auto parent = mst_parents(pts.size(), mst.edges, 5, &order);
  EXPECT_EQ(parent[5], 5u);
  // The DFS order starts at the root and visits every parent before its
  // children, each node once.
  ASSERT_EQ(order.size(), pts.size());
  EXPECT_EQ(order.front(), 5u);
  std::vector<char> seen(pts.size(), 0);
  for (const std::size_t v : order) {
    EXPECT_FALSE(seen[v]) << "node " << v << " visited twice";
    if (v != 5) {
      EXPECT_TRUE(seen[parent[v]]) << "node " << v;
    }
    seen[v] = 1;
  }
  // Every node reaches the root.
  for (std::size_t v = 0; v < pts.size(); ++v) {
    std::size_t u = v;
    std::size_t steps = 0;
    while (u != 5 && steps <= pts.size()) {
      u = parent[u];
      ++steps;
    }
    EXPECT_EQ(u, 5u) << "node " << v << " does not reach the root";
  }
}

TEST(PrimMst, StaticDispatchMatchesFunctionOracle) {
  const auto pts = random_points(25, 10);
  const auto via_fn = euclidean_mst(pts);
  const auto via_template = prim_mst_with(
      pts.size(), [&](std::size_t i, std::size_t j) {
        return geom::distance(pts[i], pts[j]);
      });
  EXPECT_NEAR(via_template.total_weight, via_fn.total_weight, 1e-12);
}

}  // namespace
}  // namespace mwc::graph
