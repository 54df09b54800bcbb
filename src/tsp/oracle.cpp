#include "tsp/oracle.hpp"

#include "geom/simd.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mwc::tsp {

namespace {

std::vector<geom::Point> concatenate(std::span<const geom::Point> depots,
                                     std::span<const geom::Point> sensors) {
  std::vector<geom::Point> pts;
  pts.reserve(depots.size() + sensors.size());
  pts.insert(pts.end(), depots.begin(), depots.end());
  pts.insert(pts.end(), sensors.begin(), sensors.end());
  return pts;
}

bool is_identity(const std::vector<std::size_t>& map) {
  for (std::size_t i = 0; i < map.size(); ++i)
    if (map[i] != i) return false;
  return true;
}

}  // namespace

DistanceView DistanceView::direct(std::span<const geom::Point> points) {
  DistanceView view;
  view.head_ = points;
  view.size_ = points.size();
  return view;
}

DistanceView DistanceView::direct(std::span<const geom::Point> head,
                                  std::span<const geom::Point> tail) {
  DistanceView view;
  view.head_ = head;
  view.tail_ = tail;
  view.size_ = head.size() + tail.size();
  return view;
}

void DistanceView::distances_to(std::size_t i, std::span<const std::size_t> js,
                                double* out) const {
  const std::size_t a = map_.empty() ? i : map_[i];
  if (oracle_ != nullptr) {
    // One (vectorized) row materialization, then a straight gather.
    const std::span<const double> row = oracle_->row(a);
    if (map_.empty()) {
      for (std::size_t k = 0; k < js.size(); ++k) out[k] = row[js[k]];
    } else {
      for (std::size_t k = 0; k < js.size(); ++k) out[k] = row[map_[js[k]]];
    }
    return;
  }
  // Direct geometry: gather coordinates once, run one row kernel.
  thread_local std::vector<double> gx, gy;
  gx.resize(js.size());
  gy.resize(js.size());
  for (std::size_t k = 0; k < js.size(); ++k) {
    const geom::Point& t = backing_point(map_.empty() ? js[k] : map_[js[k]]);
    gx[k] = t.x;
    gy[k] = t.y;
  }
  const geom::Point& p = backing_point(a);
  geom::simd::distance_row(p.x, p.y, gx.data(), gy.data(), out, js.size());
}

void DistanceView::distances_pairs(std::span<const std::size_t> as,
                                   std::span<const std::size_t> bs,
                                   double* out) const {
  MWC_DEBUG_ASSERT(as.size() == bs.size());
  if (oracle_ != nullptr) {
    // Pairs hit arbitrary rows; cached lookups are already plain loads
    // once their rows exist, so there is nothing to vectorize here.
    for (std::size_t k = 0; k < as.size(); ++k) out[k] = (*this)(as[k], bs[k]);
    return;
  }
  thread_local std::vector<double> gax, gay, gbx, gby;
  gax.resize(as.size());
  gay.resize(as.size());
  gbx.resize(as.size());
  gby.resize(as.size());
  for (std::size_t k = 0; k < as.size(); ++k) {
    const geom::Point& pa = backing_point(map_.empty() ? as[k] : map_[as[k]]);
    const geom::Point& pb = backing_point(map_.empty() ? bs[k] : map_[bs[k]]);
    gax[k] = pa.x;
    gay[k] = pa.y;
    gbx[k] = pb.x;
    gby[k] = pb.y;
  }
  geom::simd::distance_pairs(gax.data(), gay.data(), gbx.data(), gby.data(),
                             out, as.size());
}

DistanceView DistanceView::sub(std::vector<std::size_t> locals) const {
  DistanceView view;
  view.oracle_ = oracle_;
  view.head_ = head_;
  view.tail_ = tail_;
  view.size_ = locals.size();
  if (map_.empty()) {
    view.map_ = std::move(locals);
  } else {
    view.map_.reserve(locals.size());
    for (std::size_t local : locals) {
      MWC_DEBUG_ASSERT(local < size_);
      view.map_.push_back(map_[local]);
    }
  }
  // An identity map is pure per-probe overhead; the empty map means the
  // same thing for free.
  if (is_identity(view.map_)) view.map_.clear();
  return view;
}

DistanceView DistanceView::dispatch(
    std::size_t q, std::span<const std::size_t> sensor_ids) const {
  std::vector<std::size_t> subset;
  subset.reserve(q + sensor_ids.size());
  for (std::size_t l = 0; l < q; ++l) subset.push_back(l);
  for (std::size_t id : sensor_ids) {
    MWC_DEBUG_ASSERT(q + id < size_);
    subset.push_back(q + id);
  }
  return sub(std::move(subset));
}

DistanceOracle::DistanceOracle(std::span<const geom::Point> depots,
                               std::span<const geom::Point> sensors)
    : q_(depots.size()), matrix_(concatenate(depots, sensors)) {}

DistanceOracle::DistanceOracle(std::vector<geom::Point> points,
                               std::size_t num_depots)
    : q_(num_depots), matrix_(std::move(points)) {
  MWC_ASSERT(q_ <= matrix_.size());
}

DistanceView DistanceOracle::view() const {
  DistanceView view;
  view.oracle_ = this;
  view.size_ = size();
  return view;
}

DistanceView DistanceOracle::dispatch_view(
    std::span<const std::size_t> sensor_ids) const {
  MWC_OBS_COUNT("oracle.dispatch_views");
  return view().dispatch(q_, sensor_ids);
}

}  // namespace mwc::tsp
