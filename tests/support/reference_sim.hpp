// Scalar reference for sim::Simulator::run, kept only as a test oracle:
// the horizon loop as it was before the aging pass became branch-free
// (std::vector<bool> death flags, one branchy loop per event that records
// depletions and ages every sensor, dispatch sets copied into the log).
// Tour costs come from Algorithm 2 over the same direct dispatch view the
// simulator uses, memoized per set, so a run with any tour options (polish
// included: tsp::q_rooted_tsp applies the one candidate-polish rule) and
// unlimited range must reproduce every SimResult field bit for bit.
// Header-only and gtest-free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <vector>

#include "charging/schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "tsp/oracle.hpp"
#include "tsp/qrooted.hpp"
#include "util/assert.hpp"
#include "wsn/cycles.hpp"
#include "wsn/network.hpp"

namespace mwc::testing {

class ReferenceView final : public charging::StateView {
 public:
  ReferenceView(const wsn::Network& network, double horizon)
      : network_(network), horizon_(horizon) {}

  const wsn::Network& network() const override { return network_; }
  double horizon() const override { return horizon_; }
  double now() const override { return now_; }
  double residual_life(std::size_t i) const override { return residual_[i]; }
  double cycle(std::size_t i) const override { return cycles_[i]; }

  double now_ = 0.0;
  std::vector<double> residual_;
  std::vector<double> cycles_;

 private:
  const wsn::Network& network_;
  double horizon_;
};

/// Runs `policy` over one monitoring period the way the scalar loop did.
/// Supports what the oracle needs: uncapacitated rounds. `wall_seconds`
/// stays 0.
inline sim::SimResult reference_run(const wsn::Network& network,
                                    const wsn::CycleProcess& cycle_model,
                                    const sim::SimOptions& options,
                                    charging::Policy& policy) {
  MWC_ASSERT(options.trip_capacity <= 0.0);
  constexpr double kTimeTolerance = 1e-9;

  struct Cost {
    double total = 0.0;
    std::vector<double> per_depot;
  };
  std::map<std::vector<std::size_t>, Cost> costs;
  sim::SimResult result;
  const auto dispatch_cost = [&](const std::vector<std::size_t>& sensors) {
    const auto it = costs.find(sensors);
    if (it != costs.end()) {
      ++result.tour_cache_hits;
      return it->second;
    }
    ++result.tour_cache_misses;
    ++result.tour_builds;
    const auto view =
        tsp::DistanceView::direct(network.depots(), network.sensor_points())
            .dispatch(network.q(), sensors);
    const auto tours =
        tsp::q_rooted_tsp(view, network.q(), options.tour_options);
    Cost cost;
    cost.total = tours.total_length;
    for (const auto& tour : tours.tours)
      cost.per_depot.push_back(tour.length_with(view));
    costs.emplace(sensors, cost);
    return cost;
  };

  const std::size_t n = network.n();
  const double T = options.horizon;
  ReferenceView view(network, T);
  view.now_ = 0.0;
  view.cycles_ = cycle_model.cycles_at_slot(0);
  view.residual_ = view.cycles_;

  result.per_charger_cost.assign(network.q(), 0.0);
  std::vector<bool> currently_dead(n, false);
  std::vector<bool> ever_dead(n, false);

  policy.reset(view);

  std::size_t slot = 0;
  const bool variable = options.slot_length > 0.0;

  const auto advance_to = [&](double target) {
    const double delta = target - view.now_;
    if (delta <= 0.0) {
      view.now_ = target;
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!currently_dead[i] && view.residual_[i] < delta - kTimeTolerance) {
        currently_dead[i] = true;
        if (!ever_dead[i]) {
          ever_dead[i] = true;
          ++result.dead_sensors;
        }
        result.deaths.push_back(
            sim::DeathEvent{i, view.now_ + view.residual_[i]});
      }
      view.residual_[i] = std::max(0.0, view.residual_[i] - delta);
    }
    view.now_ = target;
  };

  while (view.now_ < T) {
    const double next_slot_time =
        variable ? static_cast<double>(slot + 1) * options.slot_length
                 : std::numeric_limits<double>::infinity();

    auto dispatch = policy.next_dispatch(view);
    double dispatch_time = std::numeric_limits<double>::infinity();
    if (dispatch) dispatch_time = std::max(dispatch->time, view.now_);

    const double t_next = std::min({next_slot_time, dispatch_time, T});
    advance_to(t_next);
    if (view.now_ >= T) break;

    if (dispatch && dispatch_time <= t_next + kTimeTolerance &&
        dispatch_time <= next_slot_time) {
      const Cost cost = dispatch_cost(dispatch->sensors);
      result.service_cost += cost.total;
      for (std::size_t l = 0; l < cost.per_depot.size(); ++l)
        result.per_charger_cost[l] += cost.per_depot[l];
      ++result.num_dispatches;
      result.num_sensor_charges += dispatch->sensors.size();
      if (options.record_dispatches) {
        result.dispatch_log.push_back(
            sim::DispatchRecord{dispatch_time, dispatch->sensors, cost.total});
      }
      double dispatch_margin = std::numeric_limits<double>::infinity();
      for (std::size_t id : dispatch->sensors) {
        dispatch_margin = std::min(dispatch_margin, view.residual_[id]);
        view.residual_[id] = view.cycles_[id];
        currently_dead[id] = false;
      }
      result.min_residual_at_charge =
          std::min(result.min_residual_at_charge, dispatch_margin);
      policy.on_dispatch_executed(view, *dispatch);
      continue;
    }

    if (variable && view.now_ + kTimeTolerance >= next_slot_time) {
      ++slot;
      const auto new_cycles = cycle_model.cycles_at_slot(slot);
      for (std::size_t i = 0; i < n; ++i) {
        const double old_tau = view.cycles_[i];
        if (old_tau > 0.0) view.residual_[i] *= new_cycles[i] / old_tau;
        view.cycles_[i] = new_cycles[i];
      }
      policy.on_cycles_updated(view);
    }
  }
  return result;
}

}  // namespace mwc::testing
