// Shared distance oracle over the combined depot+sensor index space.
//
// Every layer of the reproduction — Algorithm 1's contracted MST,
// Algorithm 2's double-tree tours, the 2-opt/Or-opt polishers, and the
// simulator's per-dispatch costing — probes Euclidean distances on the
// same point set over and over. `DistanceOracle` materializes those
// distances once per network into a flat row-major cache (lazily, row by
// row, thread-safe), and `DistanceView` is the one kernel every tsp
// routine reads through:
//
//   * `DistanceOracle::dispatch_view(ids)` — the combined subspace
//     {all q depots} ∪ {q + id : id ∈ ids} of one dispatch set, served
//     from the cache;
//   * `DistanceView::direct(...)` — computing geom::distance on the fly
//     (bit-identical values); with a sub() map it spans the same
//     dispatch subspace. The simulator costs every round this way, since
//     the q-rooted MSF's sparse span no longer probes all pairs; the
//     oracle serves capacity-split trips and callers that fill it up
//     front.
//
// Both modes produce bit-identical distances, so construction and
// improvement routines yield *identical* tours either way — the golden
// tests in tests/tsp/oracle_test.cpp pin that equivalence.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "geom/distance.hpp"
#include "geom/point.hpp"

namespace mwc::tsp {

class DistanceOracle;

/// Non-owning distance kernel over an indexed node set. Either backed by
/// a `DistanceOracle` (cached lookups) or by raw points (direct
/// geometry). An optional index map re-labels local indices into the
/// backing space, which is how dispatch views avoid copying.
class DistanceView {
 public:
  DistanceView() = default;

  /// Direct-geometry view over a contiguous point span.
  static DistanceView direct(std::span<const geom::Point> points);

  /// Direct-geometry view over the concatenation head ++ tail (the
  /// QRootedInstance depots-then-sensors layout, without the copy).
  static DistanceView direct(std::span<const geom::Point> head,
                             std::span<const geom::Point> tail);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// True when reads hit a materialized cache instead of recomputing.
  bool cached() const noexcept { return oracle_ != nullptr; }

  /// Distance between local node indices i and j.
  double operator()(std::size_t i, std::size_t j) const;

  /// Position of local node i: the backing point of a direct view, the
  /// oracle's point of a cached one. Geometric algorithms (the Delaunay
  /// span of the q-rooted MSF) read positions here, so they run the same
  /// on either mode and never touch the oracle's rows.
  const geom::Point& point(std::size_t i) const;

  /// Batched probes: out[k] = (*this)(i, js[k]) for every k. Cached
  /// views gather from the (SIMD-filled) oracle row; direct views gather
  /// coordinates and run one geom::simd row kernel. Bit-identical to
  /// per-probe operator() either way.
  void distances_to(std::size_t i, std::span<const std::size_t> js,
                    double* out) const;

  /// Batched probes: out[k] = (*this)(as[k], bs[k]) for every k
  /// (as.size() == bs.size()).
  void distances_pairs(std::span<const std::size_t> as,
                       std::span<const std::size_t> bs, double* out) const;

  /// View over a subset of this view's nodes; `locals[k]` becomes node k
  /// of the returned view. Maps compose, so sub-views of sub-views keep
  /// reading the same backing storage.
  DistanceView sub(std::vector<std::size_t> locals) const;

  /// View over one dispatch set of a combined space whose first q nodes
  /// are the depots: all q depots followed by node q + id for each id.
  DistanceView dispatch(std::size_t q,
                        std::span<const std::size_t> sensor_ids) const;

 private:
  friend class DistanceOracle;

  const DistanceOracle* oracle_ = nullptr;
  std::span<const geom::Point> head_;
  std::span<const geom::Point> tail_;
  std::vector<std::size_t> map_;  ///< local -> backing index; empty = identity
  std::size_t size_ = 0;

  const geom::Point& backing_point(std::size_t i) const noexcept {
    return i < head_.size() ? head_[i] : tail_[i - head_.size()];
  }
};

/// Per-network pairwise-distance cache over the combined index space:
/// indices 0..q-1 are the depots, q..q+m-1 the sensors, exactly the
/// convention of tsp::QRootedInstance. Rows materialize on first touch
/// (see geom::LazyDistanceMatrix), so building an oracle is O(q + m) and
/// only probed rows ever pay the O(q + m) fill. Move-only.
class DistanceOracle {
 public:
  DistanceOracle() = default;

  /// Combined space from separate depot and sensor position lists.
  DistanceOracle(std::span<const geom::Point> depots,
                 std::span<const geom::Point> sensors);

  /// Combined space from an already-concatenated point list whose first
  /// `num_depots` entries are depots.
  explicit DistanceOracle(std::vector<geom::Point> points,
                          std::size_t num_depots = 0);

  std::size_t size() const noexcept { return matrix_.size(); }
  std::size_t q() const noexcept { return q_; }
  bool empty() const noexcept { return matrix_.empty(); }
  std::span<const geom::Point> points() const noexcept {
    return matrix_.points();
  }

  /// Cached distance between combined indices (first touch of row i
  /// materializes it; safe to call concurrently).
  double operator()(std::size_t i, std::size_t j) const {
    return matrix_(i, j);
  }

  /// Combined-space row i as a contiguous span, materializing it (one
  /// SIMD fill) if needed. What the batched DistanceView probes read.
  std::span<const double> row(std::size_t i) const { return matrix_.row(i); }

  /// View over the whole combined space.
  DistanceView view() const;

  /// View over one dispatch set: all q depots followed by the sensors
  /// with the given ids (combined index q + id), i.e. the exact node
  /// space q_rooted_tsp runs on for that dispatch.
  DistanceView dispatch_view(std::span<const std::size_t> sensor_ids) const;

  /// Eagerly fills all rows (bench warm-up helper).
  void materialize_all() const { matrix_.materialize_all(); }

  /// Rows materialized so far (cache-occupancy statistic).
  std::size_t rows_materialized() const noexcept {
    return matrix_.rows_materialized();
  }

 private:
  std::size_t q_ = 0;
  geom::LazyDistanceMatrix matrix_;
};

inline double DistanceView::operator()(std::size_t i, std::size_t j) const {
  const std::size_t a = map_.empty() ? i : map_[i];
  const std::size_t b = map_.empty() ? j : map_[j];
  if (oracle_ != nullptr) return (*oracle_)(a, b);
  return geom::distance(backing_point(a), backing_point(b));
}

inline const geom::Point& DistanceView::point(std::size_t i) const {
  const std::size_t a = map_.empty() ? i : map_[i];
  return oracle_ != nullptr ? oracle_->points()[a] : backing_point(a);
}

}  // namespace mwc::tsp
