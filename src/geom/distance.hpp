// Pairwise Euclidean distances over point sets: a row-major n x n matrix,
// contiguous, cache-friendly, and symmetric, for callers that probe most
// pairs (the exhaustive polish sweeps, capacity splitting).
//
// `LazyDistanceMatrix` materializes one row at a time on first touch
// (thread-safe), which is what the tsp::DistanceOracle builds on: a
// network-wide cache only ever pays for the rows its dispatch subsets
// actually probe.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "geom/soa.hpp"

namespace mwc::geom {

/// Symmetric n x n Euclidean distance matrix whose rows are computed on
/// first access. Concurrent readers are safe: each row is guarded by an
/// atomic tri-state flag (empty / filling / ready), so parallel consumers
/// (e.g. batched tour costing on a thread pool) share one materialization.
/// Values are bit-identical to calling `distance` directly.
class LazyDistanceMatrix {
 public:
  LazyDistanceMatrix() = default;
  explicit LazyDistanceMatrix(std::vector<Point> points);

  LazyDistanceMatrix(LazyDistanceMatrix&&) noexcept = default;
  LazyDistanceMatrix& operator=(LazyDistanceMatrix&&) noexcept = default;
  LazyDistanceMatrix(const LazyDistanceMatrix&) = delete;
  LazyDistanceMatrix& operator=(const LazyDistanceMatrix&) = delete;

  std::size_t size() const noexcept { return pts_.size(); }
  bool empty() const noexcept { return pts_.empty(); }
  std::span<const Point> points() const noexcept { return pts_; }

  /// The same points deinterleaved, for callers that batch their own
  /// probes through geom/simd.hpp instead of materializing rows here.
  const PointsSoA& soa() const noexcept { return soa_; }

  double operator()(std::size_t i, std::size_t j) const {
    ensure_row(i);
    return d_[i * pts_.size() + j];
  }

  /// Row i as a contiguous span, materializing it if needed.
  std::span<const double> row(std::size_t i) const {
    ensure_row(i);
    return {d_.get() + i * pts_.size(), pts_.size()};
  }

  /// Eagerly fills every remaining row (e.g. before a measurement where
  /// first-touch cost should not be attributed to the consumer).
  void materialize_all() const;

  /// Drops every cached row (storage is kept, so the next fills reuse
  /// already-faulted pages). Bench helper; not safe against concurrent
  /// readers.
  void reset();

  /// Rows currently materialized (cache-occupancy statistic).
  std::size_t rows_materialized() const noexcept;

 private:
  void ensure_row(std::size_t i) const;
  void fill_row(std::size_t i) const;

  std::vector<Point> pts_;
  PointsSoA soa_;
  /// Row-major n x n storage, allocated uninitialized (see the ctor);
  /// row i is valid only once state_[i] reads 2.
  mutable std::unique_ptr<double[]> d_;
  /// Per-row state: 0 = empty, 1 = being filled, 2 = ready.
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> state_;
};

/// Total length of the closed polyline visiting `order` of `points`
/// (returns to the first node).
double closed_tour_length(std::span<const Point> points,
                          std::span<const std::size_t> order);

/// Total length of the open polyline.
double path_length(std::span<const Point> points,
                   std::span<const std::size_t> order);

}  // namespace mwc::geom
