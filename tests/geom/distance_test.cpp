#include "geom/distance.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace mwc::geom {
namespace {

std::vector<Point> random_points(std::size_t n, std::uint64_t seed) {
  mwc::Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  return pts;
}

/// O(n^3) triangle-inequality check over every triple of `d`.
template <typename Matrix>
bool satisfies_triangle_inequality(const Matrix& d, double tol = 1e-9) {
  for (std::size_t i = 0; i < d.size(); ++i)
    for (std::size_t j = 0; j < d.size(); ++j)
      for (std::size_t k = 0; k < d.size(); ++k)
        if (d(i, j) > d(i, k) + d(k, j) + tol) return false;
  return true;
}

TEST(LazyDistanceMatrix, Empty) {
  const LazyDistanceMatrix d(std::vector<Point>{});
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.size(), 0u);
}

TEST(LazyDistanceMatrix, DiagonalZero) {
  const LazyDistanceMatrix d(random_points(20, 1));
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(d(i, i), 0.0);
}

TEST(LazyDistanceMatrix, Symmetric) {
  const LazyDistanceMatrix d(random_points(20, 2));
  for (std::size_t i = 0; i < d.size(); ++i)
    for (std::size_t j = 0; j < d.size(); ++j)
      EXPECT_DOUBLE_EQ(d(i, j), d(j, i));
}

TEST(LazyDistanceMatrix, MatchesPointDistance) {
  const auto pts = random_points(15, 3);
  const LazyDistanceMatrix d(pts);
  for (std::size_t i = 0; i < d.size(); ++i)
    for (std::size_t j = 0; j < d.size(); ++j)
      EXPECT_DOUBLE_EQ(d(i, j), distance(pts[i], pts[j]));
}

TEST(LazyDistanceMatrix, EuclideanSatisfiesTriangleInequality) {
  const LazyDistanceMatrix d(random_points(25, 4));
  EXPECT_TRUE(satisfies_triangle_inequality(d));
}

TEST(LazyDistanceMatrix, RowSpan) {
  const LazyDistanceMatrix d(random_points(10, 5));
  const auto row3 = d.row(3);
  ASSERT_EQ(row3.size(), 10u);
  for (std::size_t j = 0; j < 10; ++j) EXPECT_EQ(row3[j], d(3, j));
}

TEST(TourLength, SquareTour) {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  const std::vector<std::size_t> order{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(closed_tour_length(pts, order), 4.0);
  EXPECT_DOUBLE_EQ(path_length(pts, order), 3.0);
}

TEST(TourLength, DegenerateTours) {
  const std::vector<Point> pts{{0, 0}, {3, 4}};
  EXPECT_EQ(closed_tour_length(pts, std::vector<std::size_t>{}), 0.0);
  EXPECT_EQ(closed_tour_length(pts, std::vector<std::size_t>{0}), 0.0);
  const std::vector<std::size_t> pair{0, 1};
  EXPECT_DOUBLE_EQ(closed_tour_length(pts, pair), 10.0);  // there and back
  EXPECT_DOUBLE_EQ(path_length(pts, pair), 5.0);
}

}  // namespace
}  // namespace mwc::geom
