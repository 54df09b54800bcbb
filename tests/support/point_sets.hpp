// Shared point-set generators for the triangulation and MSF suites:
// general-position inputs plus the degenerate families (co-circular
// grids, collinear chains, duplicates, all-coincident) that exercise the
// exact predicates and the duplicate handling of geom::delaunay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "util/rng.hpp"

namespace mwc::testing {

inline std::vector<geom::Point> uniform_points(std::size_t n,
                                               std::uint64_t seed,
                                               double side = 1000.0) {
  Rng rng(seed);
  std::vector<geom::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  return pts;
}

/// A few tight Gaussian clusters: many near-ties between close points.
inline std::vector<geom::Point> clustered_points(std::size_t n,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Point> centers;
  for (int c = 0; c < 5; ++c)
    centers.push_back({rng.uniform(100.0, 900.0), rng.uniform(100.0, 900.0)});
  std::vector<geom::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point& c = centers[i % centers.size()];
    pts.push_back({rng.normal(c.x, 8.0), rng.normal(c.y, 8.0)});
  }
  return pts;
}

/// n points on an integer lattice of the given spacing, in shuffled
/// order: every lattice square is co-circular and every row collinear.
inline std::vector<geom::Point> grid_points(std::size_t n, std::uint64_t seed,
                                            double spacing = 10.0) {
  std::size_t side = 1;
  while (side * side < n) ++side;
  std::vector<geom::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({spacing * static_cast<double>(i % side),
                   spacing * static_cast<double>(i / side)});
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(pts[i - 1], pts[j]);
  }
  return pts;
}

/// n points on one (slanted) line, shuffled.
inline std::vector<geom::Point> collinear_points(std::size_t n,
                                                 std::uint64_t seed) {
  std::vector<geom::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({3.0 * static_cast<double>(i), 2.0 * static_cast<double>(i)});
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(pts[i - 1], pts[j]);
  }
  return pts;
}

/// Uniform points where about a third repeat an earlier point exactly.
inline std::vector<geom::Point> duplicated_points(std::size_t n,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.uniform() < 0.35) {
      pts.push_back(pts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    } else {
      pts.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
    }
  }
  return pts;
}

inline std::vector<geom::Point> coincident_points(std::size_t n) {
  return std::vector<geom::Point>(n, geom::Point{250.0, 750.0});
}

/// Named families, so suites can loop over "every degenerate set".
struct PointSet {
  std::string name;
  std::vector<geom::Point> points;
};

inline std::vector<PointSet> degenerate_point_sets(std::size_t n,
                                                   std::uint64_t seed) {
  return {{"clustered", clustered_points(n, seed)},
          {"grid", grid_points(n, seed)},
          {"collinear", collinear_points(n, seed)},
          {"duplicates", duplicated_points(n, seed)},
          {"coincident", coincident_points(n)}};
}

}  // namespace mwc::testing
