#include "geom/distance.hpp"

#include <thread>

#include "geom/simd.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mwc::geom {

LazyDistanceMatrix::LazyDistanceMatrix(std::vector<Point> points)
    : pts_(std::move(points)),
      soa_(std::span<const Point>(pts_)),
      // Deliberately uninitialized: zero-filling n^2 doubles costs more
      // than many consumers' whole probe set, and every row is written by
      // fill_row before its ready flag ever lets a reader in.
      d_(pts_.empty() ? nullptr : new double[pts_.size() * pts_.size()]),
      state_(pts_.empty() ? nullptr
                          : new std::atomic<std::uint8_t>[pts_.size()]) {
  for (std::size_t i = 0; i < pts_.size(); ++i)
    state_[i].store(0, std::memory_order_relaxed);
}

void LazyDistanceMatrix::fill_row(std::size_t i) const {
  const std::size_t n = pts_.size();
  double* row = d_.get() + i * n;
  simd::distance_row(soa_.x(i), soa_.y(i), soa_.xs().data(), soa_.ys().data(),
                     row, n);
  row[i] = 0.0;
  MWC_OBS_COUNT("oracle.rows_materialized");
  MWC_OBS_COUNT_N("oracle.row_fill_entries", n);
}

void LazyDistanceMatrix::ensure_row(std::size_t i) const {
  MWC_DEBUG_ASSERT(i < pts_.size());
  auto& flag = state_[i];
  if (flag.load(std::memory_order_acquire) == 2) return;
  std::uint8_t expected = 0;
  if (flag.compare_exchange_strong(expected, 1, std::memory_order_acq_rel)) {
    fill_row(i);
    flag.store(2, std::memory_order_release);
    return;
  }
  // Another thread is filling this row; wait until it publishes.
  while (flag.load(std::memory_order_acquire) != 2)
    std::this_thread::yield();
}

void LazyDistanceMatrix::materialize_all() const {
  for (std::size_t i = 0; i < pts_.size(); ++i) ensure_row(i);
}

void LazyDistanceMatrix::reset() {
  for (std::size_t i = 0; i < pts_.size(); ++i)
    state_[i].store(0, std::memory_order_relaxed);
}

std::size_t LazyDistanceMatrix::rows_materialized() const noexcept {
  std::size_t ready = 0;
  for (std::size_t i = 0; i < pts_.size(); ++i)
    if (state_[i].load(std::memory_order_acquire) == 2) ++ready;
  return ready;
}

double closed_tour_length(std::span<const Point> points,
                          std::span<const std::size_t> order) {
  if (order.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    MWC_DEBUG_ASSERT(order[i] < points.size());
    total += distance(points[order[i]], points[order[i + 1]]);
  }
  total += distance(points[order.back()], points[order.front()]);
  return total;
}

double path_length(std::span<const Point> points,
                   std::span<const std::size_t> order) {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    MWC_DEBUG_ASSERT(order[i] < points.size());
    total += distance(points[order[i]], points[order[i + 1]]);
  }
  return total;
}

}  // namespace mwc::geom
