// geom::orient2d / geom::incircle against exact integer arithmetic, and
// geom::delaunay's validity (Euler counts, counter-clockwise faces, empty
// circumcircles, EMST containment) on general-position and degenerate
// point sets.
#include "geom/delaunay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "../support/point_sets.hpp"
#include "geom/point.hpp"
#include "graph/mst.hpp"
#include "util/rng.hpp"

namespace mwc::geom {
namespace {

__extension__ typedef __int128 Int;

int sign(Int v) { return v > 0 ? 1 : (v < 0 ? -1 : 0); }
int sign(double v) { return v > 0.0 ? 1 : (v < 0.0 ? -1 : 0); }

/// Exact orientation for integer coordinates below 2^60.
int orient_exact(Int ax, Int ay, Int bx, Int by, Int cx, Int cy) {
  return sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx));
}

/// Exact in-circle test for integer coordinates below 2^24.
int incircle_exact(const Point& a, const Point& b, const Point& c,
                   const Point& d) {
  const auto I = [](double v) { return static_cast<Int>(v); };
  const Int adx = I(a.x) - I(d.x), ady = I(a.y) - I(d.y);
  const Int bdx = I(b.x) - I(d.x), bdy = I(b.y) - I(d.y);
  const Int cdx = I(c.x) - I(d.x), cdy = I(c.y) - I(d.y);
  return sign((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy) +
              (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy) +
              (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady));
}

TEST(Predicates, OrientSignsOnSimpleTriangles) {
  EXPECT_GT(orient2d({0, 0}, {1, 0}, {0, 1}), 0.0);
  EXPECT_LT(orient2d({0, 0}, {0, 1}, {1, 0}), 0.0);
  EXPECT_EQ(orient2d({0, 0}, {1, 1}, {2, 2}), 0.0);
  EXPECT_EQ(orient2d({1, 1}, {1, 1}, {5, 2}), 0.0);
}

TEST(Predicates, OrientIsExactOnNearlyCollinearPoints) {
  // Shewchuk's figure: points a few ulps off the line y = x near 0.5,
  // where the naive determinant gets the sign wrong. Scaled by 2^53 the
  // coordinates are integers below 2^58, so __int128 is exact.
  const double ulp = std::ldexp(1.0, -53);
  std::size_t disagreements_with_naive = 0;
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      const Point a{0.5 + i * ulp, 0.5 + j * ulp};
      const Point b{12.0, 12.0};
      const Point c{24.0, 24.0};
      const auto S = [&](double v) {
        return static_cast<Int>(std::ldexp(v, 53));
      };
      const int want = orient_exact(S(a.x), S(a.y), S(b.x), S(b.y), S(c.x),
                                    S(c.y));
      EXPECT_EQ(sign(orient2d(a, b, c)), want) << i << "," << j;
      const double naive =
          (a.x - c.x) * (b.y - c.y) - (a.y - c.y) * (b.x - c.x);
      if (sign(naive) != want) ++disagreements_with_naive;
    }
  }
  // The grid really exercises the exact stage.
  EXPECT_GT(disagreements_with_naive, 0u);
}

TEST(Predicates, IncircleMatchesExactIntegerArithmetic) {
  // Points rounded onto a circle of radius ~2^20: nearly co-circular, so
  // the floating-point filter often cannot decide.
  Rng rng(7);
  const double r = 1048576.0;
  for (int t = 0; t < 4000; ++t) {
    Point p[4];
    for (auto& q : p) {
      const double th = rng.uniform(0.0, 6.283185307179586);
      q = {std::round(r * std::cos(th)) + 3.0e6,
           std::round(r * std::sin(th)) + 3.0e6};
    }
    if (orient2d(p[0], p[1], p[2]) < 0.0) std::swap(p[0], p[1]);
    const int want = incircle_exact(p[0], p[1], p[2], p[3]);
    EXPECT_EQ(sign(incircle(p[0], p[1], p[2], p[3])), want) << t;
  }
  // Integer lattice squares are exactly co-circular.
  EXPECT_EQ(incircle({0, 0}, {10, 0}, {10, 10}, {0, 10}), 0.0);
  EXPECT_GT(incircle({0, 0}, {10, 0}, {10, 10}, {5, 5}), 0.0);
  EXPECT_LT(incircle({0, 0}, {10, 0}, {10, 10}, {20, 20}), 0.0);
}

TEST(Predicates, ExactAtTheEdgesOfTheCoordinateDomain) {
  const double lo = kMinExactMagnitude;
  // Tiny but distinct: collinear and non-collinear are told apart.
  EXPECT_EQ(orient2d({lo, lo}, {2 * lo, 2 * lo}, {3 * lo, 3 * lo}), 0.0);
  EXPECT_GT(orient2d({0, 0}, {lo, 0}, {0, lo}), 0.0);
  EXPECT_GT(incircle({0, 0}, {2 * lo, 0}, {0, 2 * lo}, {lo, lo}), 0.0);
  EXPECT_EQ(incircle({0, 0}, {lo, 0}, {lo, lo}, {0, lo}), 0.0);
  const double hi = 1e6;  // the service's coordinate bound
  EXPECT_EQ(incircle({-hi, -hi}, {hi, -hi}, {hi, hi}, {-hi, hi}), 0.0);
  EXPECT_LT(incircle({-hi, -hi}, {hi, -hi}, {hi, hi}, {-hi, 2 * hi}), 0.0);
}

// ---------------------------------------------------------------------------
// Triangulation validity.

using EdgeSet = std::set<std::pair<std::uint32_t, std::uint32_t>>;

/// Checks everything a Delaunay triangulation of `pts` must satisfy and
/// returns its non-degenerate edge set (coincident copies excluded).
EdgeSet check_triangulation(const std::vector<Point>& pts,
                            const Triangulation& tri) {
  // Representatives: the lowest index of each distinct position.
  std::map<std::pair<double, double>, std::uint32_t> rep_of;
  for (std::uint32_t i = 0; i < pts.size(); ++i)
    rep_of.emplace(std::make_pair(pts[i].x, pts[i].y), i);
  const std::size_t v = rep_of.size();

  EdgeSet edges;
  std::size_t zero_length = 0;
  for (const auto& [a, b] : tri.edges) {
    EXPECT_LT(a, b);
    EXPECT_TRUE(edges.insert({a, b}).second) << "duplicate edge";
    if (pts[a] == pts[b]) {
      ++zero_length;
      EXPECT_EQ(a, (rep_of.at({pts[b].x, pts[b].y}))) << "dup joins its rep";
    }
  }
  EXPECT_EQ(zero_length, pts.size() - v) << "one zero edge per duplicate";
  EdgeSet proper;
  for (const auto& e : edges)
    if (pts[e.first] != pts[e.second]) proper.insert(e);
  for (const auto& e : proper) {
    EXPECT_EQ(rep_of.at({pts[e.first].x, pts[e.first].y}), e.first);
    EXPECT_EQ(rep_of.at({pts[e.second].x, pts[e.second].y}), e.second);
  }

  if (v < 2) {
    EXPECT_TRUE(proper.empty());
    return proper;
  }
  // Connected over the distinct points.
  {
    std::vector<graph::Edge> es;
    for (const auto& e : tri.edges) es.push_back({e.first, e.second, 1.0});
    EXPECT_EQ(graph::kruskal_mst(pts.size(), es).edges.size(),
              pts.size() - 1);
  }

  const std::size_t t = tri.triangles.size();
  if (t == 0) {
    // All collinear: the chain through the points in sorted order.
    EXPECT_EQ(proper.size(), v - 1);
    return proper;
  }
  // Euler over the distinct points: V - E + F = 2 with the outer face.
  EXPECT_EQ(static_cast<long>(v) - static_cast<long>(proper.size()) +
                static_cast<long>(t + 1),
            2);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> faces_per_edge;
  for (const auto& f : tri.triangles) {
    EXPECT_GT(orient2d(pts[f[0]], pts[f[1]], pts[f[2]]), 0.0) << "ccw";
    for (int k = 0; k < 3; ++k) {
      const std::uint32_t a = std::min(f[k], f[(k + 1) % 3]);
      const std::uint32_t b = std::max(f[k], f[(k + 1) % 3]);
      EXPECT_TRUE(proper.contains({a, b})) << "face edge not in edge list";
      ++faces_per_edge[{a, b}];
    }
  }
  std::size_t hull = 0;
  for (const auto& [e, count] : faces_per_edge) {
    EXPECT_LE(count, 2);
    if (count == 1) ++hull;
  }
  EXPECT_EQ(faces_per_edge.size(), proper.size()) << "edge on no face";
  EXPECT_EQ(3 * t, 2 * proper.size() - hull);

  // Empty circumcircles, decided by the exact predicate: brute force on
  // small inputs, the equivalent local test (each edge's two opposite
  // vertices) on large ones.
  if (v <= 400) {
    for (const auto& f : tri.triangles)
      for (const auto& [pos, i] : rep_of)
        EXPECT_LE(incircle(pts[f[0]], pts[f[1]], pts[f[2]], pts[i]), 0.0);
  } else {
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<std::uint32_t>>
        opposite;
    for (const auto& f : tri.triangles)
      for (int k = 0; k < 3; ++k)
        opposite[{std::min(f[k], f[(k + 1) % 3]),
                  std::max(f[k], f[(k + 1) % 3])}]
            .push_back(f[(k + 2) % 3]);
    for (const auto& f : tri.triangles)
      for (int k = 0; k < 3; ++k)
        for (const std::uint32_t o :
             opposite[{std::min(f[k], f[(k + 1) % 3]),
                       std::max(f[k], f[(k + 1) % 3])}])
          EXPECT_LE(incircle(pts[f[0]], pts[f[1]], pts[f[2]], pts[o]), 0.0);
  }
  return proper;
}

/// Kruskal over every pair of `pts`.
double complete_mst_weight(const std::vector<Point>& pts) {
  std::vector<graph::Edge> all;
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = i + 1; j < pts.size(); ++j)
      all.push_back({i, j, distance(pts[i], pts[j])});
  return graph::kruskal_mst(pts.size(), std::move(all)).total_weight;
}

double delaunay_mst_weight(const std::vector<Point>& pts,
                           const Triangulation& tri) {
  std::vector<graph::Edge> es;
  for (const auto& [a, b] : tri.edges)
    es.push_back({a, b, distance(pts[a], pts[b])});
  return graph::kruskal_mst(pts.size(), std::move(es)).total_weight;
}

TEST(Delaunay, TinyInputs) {
  EXPECT_TRUE(delaunay(std::vector<Point>{}).edges.empty());
  EXPECT_TRUE(delaunay(std::vector<Point>{{1, 2}}).edges.empty());
  const auto two = delaunay(std::vector<Point>{{1, 2}, {3, 4}}, true);
  ASSERT_EQ(two.edges.size(), 1u);
  EXPECT_TRUE(two.triangles.empty());
  const std::vector<Point> tri_pts{{0, 0}, {0, 5}, {4, 1}};
  const auto three = delaunay(tri_pts, true);
  EXPECT_EQ(three.edges.size(), 3u);
  ASSERT_EQ(three.triangles.size(), 1u);
  check_triangulation(tri_pts, three);
}

TEST(Delaunay, RandomPointsAreValidAndContainTheEmst) {
  for (const std::size_t n : {4u, 17u, 200u, 3000u}) {
    const auto pts = testing::uniform_points(n, 11 + n);
    const auto tri = delaunay(pts, true);
    const auto proper = check_triangulation(pts, tri);
    EXPECT_LE(proper.size(), 3 * n - 6);
    if (n <= 200) {
      EXPECT_NEAR(delaunay_mst_weight(pts, tri), complete_mst_weight(pts),
                  1e-9);
    }
  }
}

TEST(Delaunay, DegenerateSetsAreValidAndContainTheEmst) {
  for (const std::size_t n : {5u, 64u, 300u}) {
    for (const auto& set : testing::degenerate_point_sets(n, 3 + n)) {
      SCOPED_TRACE(set.name + " n=" + std::to_string(n));
      const auto tri = delaunay(set.points, true);
      check_triangulation(set.points, tri);
      EXPECT_NEAR(delaunay_mst_weight(set.points, tri),
                  complete_mst_weight(set.points), 1e-9);
    }
  }
}

TEST(Delaunay, CollinearInputYieldsItsChain) {
  const auto pts = testing::collinear_points(50, 5);
  const auto tri = delaunay(pts, true);
  EXPECT_TRUE(tri.triangles.empty());
  ASSERT_EQ(tri.edges.size(), 49u);
  // Each edge joins neighbours along the line (x steps of 3).
  for (const auto& [a, b] : tri.edges)
    EXPECT_DOUBLE_EQ(std::abs(pts[a].x - pts[b].x), 3.0);
}

TEST(Delaunay, CoincidentPointsHangOffTheLowestIndex) {
  const auto tri = delaunay(testing::coincident_points(6), true);
  EXPECT_TRUE(tri.triangles.empty());
  ASSERT_EQ(tri.edges.size(), 5u);
  for (const auto& [a, b] : tri.edges) EXPECT_EQ(a, 0u);
}

TEST(Delaunay, GridIsTriangulatedDespiteCocircularSquares) {
  const auto pts = testing::grid_points(30 * 30, 9);
  const auto tri = delaunay(pts, true);
  check_triangulation(pts, tri);
  // A 30x30 lattice: 29*29 squares, each split into two triangles.
  EXPECT_EQ(tri.triangles.size(), 2u * 29 * 29);
}

TEST(Delaunay, LargeUniformSetStaysLinearInEdges) {
  const auto pts = testing::uniform_points(100'000, 21);
  const auto tri = delaunay(pts);
  EXPECT_LE(tri.edges.size(), 3 * pts.size() - 6);
  EXPECT_GT(tri.edges.size(), 2 * pts.size());
}

}  // namespace
}  // namespace mwc::geom
