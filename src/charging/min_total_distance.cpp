#include "charging/min_total_distance.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mwc::charging {

void MinTotalDistancePolicy::reset(const StateView& view) {
  std::vector<double> cycles;
  cycles.reserve(view.network().n());
  for (std::size_t i = 0; i < view.network().n(); ++i)
    cycles.push_back(view.cycle(i));
  partition_ = partition_by_cycles(cycles);
  depth_sets_ = round_sets_by_depth(partition_);
  next_round_ = 1;
}

std::optional<Dispatch> MinTotalDistancePolicy::next_dispatch(
    const StateView& view) {
  if (partition_.groups.empty()) return std::nullopt;
  const double time = static_cast<double>(next_round_) * partition_.tau1;
  if (time >= view.horizon()) return std::nullopt;
  Dispatch dispatch;
  dispatch.time = time;
  dispatch.sensors = depth_sets_[round_depth(partition_, next_round_)];
  return dispatch;
}

void MinTotalDistancePolicy::on_dispatch_executed(const StateView& view,
                                                  const Dispatch& dispatch) {
  (void)view;
  (void)dispatch;
  ++next_round_;
}

std::vector<std::vector<std::size_t>>
MinTotalDistancePolicy::planned_dispatch_sets(const StateView& view) const {
  (void)view;
  return depth_sets_;
}

BuiltSchedule build_min_total_distance_schedule(
    const wsn::Network& network, const std::vector<double>& cycles, double T,
    const tsp::QRootedOptions& tour_options) {
  MWC_ASSERT(cycles.size() == network.n());
  MWC_ASSERT(T > 0.0);

  BuiltSchedule schedule;
  schedule.partition = partition_by_cycles(cycles);
  if (cycles.empty()) return schedule;
  const auto& partition = schedule.partition;

  // Tours for the K+1 distinct round classes.
  std::vector<double> class_cost(partition.K + 1, 0.0);
  schedule.tours_by_depth.reserve(partition.K + 1);
  std::vector<std::size_t> cumulative;  // V_0 ∪ ... ∪ V_k
  for (std::size_t k = 0; k <= partition.K; ++k) {
    cumulative.insert(cumulative.end(), partition.groups[k].begin(),
                      partition.groups[k].end());
    tsp::QRootedInstance instance;
    instance.depots = network.depots();
    instance.sensors.reserve(cumulative.size());
    for (std::size_t id : cumulative)
      instance.sensors.push_back(network.sensor(id).position);
    auto tours = tsp::q_rooted_tsp(instance, tour_options);
    class_cost[k] = tours.total_length;
    schedule.tours_by_depth.push_back(std::move(tours));
  }

  // Dispatch stream: round j at time j τ_1, for j τ_1 < T.
  const auto depth_sets = round_sets_by_depth(partition);
  for (std::size_t j = 1;
       static_cast<double>(j) * partition.tau1 < T; ++j) {
    Dispatch dispatch;
    dispatch.time = static_cast<double>(j) * partition.tau1;
    const std::size_t depth = round_depth(partition, j);
    dispatch.sensors = depth_sets[depth];
    schedule.total_cost += class_cost[depth];
    schedule.dispatches.push_back(std::move(dispatch));
  }
  return schedule;
}

}  // namespace mwc::charging
