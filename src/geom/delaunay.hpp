// Exact planar predicates and the Delaunay triangulation.
//
// The q-rooted MSF (tsp/qrooted.hpp) spans only the Delaunay edges of a
// dispatch set's sensors: the Euclidean minimum spanning tree is a
// subgraph of the Delaunay triangulation (Shamos & Hoey 1975), so the
// sparse span is exact while costing O(m log m) instead of O(m²).
//
// Predicates follow Shewchuk (1997), "Adaptive precision floating-point
// arithmetic and fast robust geometric predicates": a floating-point
// evaluation with a forward error bound decides almost every call, and
// the rare call inside the bound is re-evaluated exactly with expansion
// arithmetic. The exact stage is exact as long as no intermediate
// product overflows or underflows, which holds whenever every coordinate
// is 0 or has magnitude in [kMinExactMagnitude, kMaxExactMagnitude]
// (degree-4 terms then stay far inside the double range). The service
// wire bounds coordinates to that domain.
//
// The triangulation is Guibas & Stolfi's (1985) divide and conquer over
// a quad-edge structure, O(n log n). Coincident points are merged before
// triangulating and re-attached to their representative (the
// lowest-index copy) by zero-length edges; an all-collinear input yields
// its chain.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geom/point.hpp"

namespace mwc::geom {

/// Coordinate domain on which orient2d and incircle are exact.
inline constexpr double kMinExactMagnitude = 1e-60;
inline constexpr double kMaxExactMagnitude = 1e60;

/// Positive when a, b, c turn counter-clockwise, negative when clockwise,
/// zero when collinear. The sign is exact; the magnitude approximates
/// twice the signed triangle area.
double orient2d(const Point& a, const Point& b, const Point& c);

/// Positive when d lies strictly inside the circle through a, b, c
/// (given counter-clockwise), negative when strictly outside, zero when
/// the four are co-circular. The sign is exact.
double incircle(const Point& a, const Point& b, const Point& c,
                const Point& d);

struct Triangulation {
  /// Every edge once, as (lower, higher) input index. Includes the
  /// zero-length edges joining coincident points to their representative.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  /// Counter-clockwise triangles (input indices of representatives);
  /// filled only on request.
  std::vector<std::array<std::uint32_t, 3>> triangles;
};

/// Delaunay triangulation of `points`. Co-circular configurations get one
/// of their valid triangulations. At most 3n - 6 edges for n >= 3
/// distinct points, plus one per duplicate.
Triangulation delaunay(std::span<const Point> points,
                       bool with_triangles = false);

}  // namespace mwc::geom
