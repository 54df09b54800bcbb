#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "charging/fleet.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mwc::sim {

namespace {
constexpr double kTimeTolerance = 1e-9;
/// Events between two reads of the clock against SimOptions::deadline.
constexpr std::size_t kDeadlinePollEvents = 256;

/// True once a set deadline (anything but max()) has passed; an unset
/// one never reads the clock.
bool deadline_passed(std::chrono::steady_clock::time_point deadline) {
  return deadline != std::chrono::steady_clock::time_point::max() &&
         std::chrono::steady_clock::now() >= deadline;
}
}  // namespace

/// StateView implementation backed by the simulator's live arrays.
class Simulator::View final : public charging::StateView {
 public:
  View(const wsn::Network& network, double horizon)
      : network_(network), horizon_(horizon) {}

  const wsn::Network& network() const override { return network_; }
  double horizon() const override { return horizon_; }
  double now() const override { return now_; }
  double residual_life(std::size_t i) const override {
    return residual_[i];
  }
  double cycle(std::size_t i) const override { return cycles_[i]; }

  // Simulator-side mutators.
  double now_ = 0.0;
  std::vector<double> residual_;
  std::vector<double> cycles_;

 private:
  const wsn::Network& network_;
  double horizon_;
};

Simulator::Simulator(const wsn::Network& network,
                     const wsn::CycleProcess& cycles,
                     const SimOptions& options)
    : network_(network),
      cycle_model_(cycles),
      options_(options),
      cache_hits_c_(metrics_.counter("sim.tour_cache_hits")),
      cache_misses_c_(metrics_.counter("sim.tour_cache_misses")),
      builds_c_(metrics_.counter("sim.tour_builds")) {
  MWC_ASSERT(options.horizon > 0.0);
  MWC_ASSERT(cycles.n() == network.n());
}

std::uint64_t Simulator::set_hash(const std::vector<std::size_t>& sensors) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL + sensors.size();
  for (std::size_t id : sensors) h = mix64(h, id);
  return h;
}

const tsp::DistanceOracle& Simulator::oracle() const {
  std::call_once(oracle_once_, [&] {
    oracle_ = std::make_unique<tsp::DistanceOracle>(network_.depots(),
                                                    network_.sensor_points());
  });
  return *oracle_;
}

tsp::DistanceView Simulator::dispatch_view(
    std::span<const std::size_t> sensors) const {
  return tsp::DistanceView::direct(network_.depots(), network_.sensor_points())
      .dispatch(network_.q(), sensors);
}

tsp::QRootedTours Simulator::build_tours(
    const std::vector<std::size_t>& sensors) const {
  builds_c_.add(1);
  return tsp::q_rooted_tsp(dispatch_view(sensors), network_.q(),
                           options_.tour_options);
}

Simulator::TourCost Simulator::compute_cost(
    const std::vector<std::size_t>& sensors, tsp::QRootedTours* keep) const {
  MWC_OBS_SCOPE("sim.compute_tour_cost");
  if (options_.trip_capacity > 0.0) {
    // Range-limited vehicles: plan the round as capacity-respecting
    // trips; each depot's trip lengths accumulate on its charger.
    builds_c_.add(1);
    const auto plan = charging::plan_capacitated_round(
        network_, sensors, options_.trip_capacity, &oracle());
    TourCost cost;
    cost.total = plan.total_length;
    cost.per_depot.reserve(plan.trips.size());
    for (const auto& depot_trips : plan.trips) {
      double depot_cost = 0.0;
      for (const auto& trip : depot_trips) depot_cost += trip.length;
      cost.per_depot.push_back(depot_cost);
    }
    if (keep != nullptr) *keep = build_tours(sensors);
    return cost;
  }

  auto tours = build_tours(sensors);
  const auto distances = dispatch_view(sensors);
  TourCost cost;
  cost.total = tours.total_length;
  cost.per_depot.reserve(tours.tours.size());
  for (const auto& tour : tours.tours)
    cost.per_depot.push_back(tour.length_with(distances));
  if (keep != nullptr) *keep = std::move(tours);
  return cost;
}

Simulator::TourCost Simulator::dispatch_cost(
    const std::vector<std::size_t>& sensors, tsp::QRootedTours* keep) {
  // A tour build can outlast many events (an MSF over the whole set), so
  // the deadline is checked before each one too.
  const auto check_deadline = [&] {
    if (deadline_passed(options_.deadline))
      throw DeadlineError("deadline expired before a tour build over " +
                          std::to_string(sensors.size()) + " sensors");
  };
  const std::uint64_t key =
      options_.cache_tour_costs ? set_hash(sensors) : 0;
  if (options_.cache_tour_costs) {
    const auto it = cost_cache_.find(key);
    if (it != cost_cache_.end()) {
      cache_hits_c_.add(1);
      MWC_OBS_COUNT("sim.tour_cache_hits");
      if (keep != nullptr) {
        // Only the cost was cached (precost_dispatches); rebuild the
        // tours once, identical to the build that costed them.
        check_deadline();
        *keep = build_tours(sensors);
      }
      return it->second;
    }
    cache_misses_c_.add(1);
    MWC_OBS_COUNT("sim.tour_cache_misses");
  }

  check_deadline();
  TourCost cost = compute_cost(sensors, keep);
  if (options_.cache_tour_costs) cost_cache_.emplace(key, cost);
  return cost;
}

std::size_t Simulator::precost_dispatches(
    std::span<const std::vector<std::size_t>> sets, ThreadPool* pool) {
  if (!options_.cache_tour_costs) return 0;
  MWC_OBS_SCOPE("sim.precost_dispatches");

  // Gather the distinct missing sets serially (the cache map is not
  // thread-safe) ...
  std::vector<const std::vector<std::size_t>*> missing;
  std::vector<std::uint64_t> keys;
  std::unordered_set<std::uint64_t> pending;
  for (const auto& sensors : sets) {
    if (sensors.empty()) continue;
    const std::uint64_t key = set_hash(sensors);
    if (cost_cache_.contains(key) || !pending.insert(key).second) continue;
    missing.push_back(&sensors);
    keys.push_back(key);
  }
  if (missing.empty()) return 0;

  // ... cost them concurrently (compute_cost only reads shared state) ...
  std::vector<TourCost> costs(missing.size());
  const auto cost_one = [&](std::size_t i) {
    costs[i] = compute_cost(*missing[i]);
  };
  if (pool != nullptr && missing.size() > 1) {
    parallel_for(*pool, 0, missing.size(), cost_one);
  } else {
    serial_for(0, missing.size(), cost_one);
  }

  // ... and publish serially.
  for (std::size_t i = 0; i < missing.size(); ++i)
    cost_cache_.emplace(keys[i], std::move(costs[i]));
  metrics_.counter("sim.precost_sets").add(missing.size());
  MWC_OBS_COUNT_N("sim.precost_sets", missing.size());
  return missing.size();
}

std::size_t Simulator::precost_policy(charging::Policy& policy,
                                      ThreadPool* pool) {
  if (!options_.cache_tour_costs) return 0;
  // Reconstruct the t = 0 state run() starts from; policies are
  // restartable, so the extra reset() is harmless.
  View view(network_, options_.horizon);
  view.now_ = 0.0;
  view.cycles_ = cycle_model_.cycles_at_slot(0);
  view.residual_ = view.cycles_;
  policy.reset(view);
  const auto sets = policy.planned_dispatch_sets(view);
  return precost_dispatches(sets, pool);
}

SimResult Simulator::run(charging::Policy& policy) {
  MWC_OBS_SCOPE("sim.run");
  Timer timer;
  SimResult result;
  const std::size_t hits_before = cache_hits_c_.value();
  const std::size_t misses_before = cache_misses_c_.value();
  const std::size_t builds_before = builds_c_.value();
  first_round_.reset();
  const std::size_t n = network_.n();
  const double T = options_.horizon;

  View view(network_, T);
  view.now_ = 0.0;
  view.cycles_ = cycle_model_.cycles_at_slot(0);
  view.residual_ = view.cycles_;  // all sensors fully charged at t = 0

  result.per_charger_cost.assign(network_.q(), 0.0);
  // Byte flags, not std::vector<bool>, so the aging pass below reads
  // them as plain contiguous memory.
  std::vector<unsigned char> currently_dead(n, 0);
  std::vector<unsigned char> ever_dead(n, 0);
  // The aging pass writes here and swaps, so the residuals from before
  // the step stay readable for the depletion instants.
  std::vector<double> aged(n);

  policy.reset(view);

  std::size_t slot = 0;
  const bool variable = options_.slot_length > 0.0;
  std::size_t events = 0;

  // Records the depletions of one step of length `delta` from view.now_,
  // in sensor order, with the instant taken from the residual before the
  // step.
  const auto record_deaths = [&](double delta) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!currently_dead[i] && view.residual_[i] < delta - kTimeTolerance) {
        currently_dead[i] = 1;
        if (!ever_dead[i]) {
          ever_dead[i] = 1;
          ++result.dead_sensors;
        }
        result.deaths.push_back(DeathEvent{i, view.now_ + view.residual_[i]});
      }
    }
  };

  // Advances the clock to `target`. One branch-free pass ages every
  // sensor and flags whether any live one depletes; only then does a
  // second pass look for which.
  const auto advance_to = [&](double target) {
    const double delta = target - view.now_;
    MWC_DEBUG_ASSERT(delta >= -kTimeTolerance);
    if (delta <= 0.0) {
      view.now_ = target;
      return;
    }
    const double limit = delta - kTimeTolerance;
    const double* residual = view.residual_.data();
    const unsigned char* dead = currently_dead.data();
    double* next = aged.data();
    int depletes = 0;  // an int flag keeps this loop vectorizable
    for (std::size_t i = 0; i < n; ++i) {
      const double r = residual[i];
      depletes |= (r < limit) & !dead[i];
      next[i] = std::max(0.0, r - delta);
    }
    if (depletes != 0) record_deaths(delta);
    view.residual_.swap(aged);
    view.now_ = target;
  };

  while (view.now_ < T) {
    if (++events % kDeadlinePollEvents == 0 &&
        deadline_passed(options_.deadline))
      throw DeadlineError("deadline expired after " +
                          std::to_string(events) +
                          " simulated events, at t = " +
                          std::to_string(view.now_) + " of " +
                          std::to_string(T));
    const double next_slot_time =
        variable ? static_cast<double>(slot + 1) * options_.slot_length
                 : std::numeric_limits<double>::infinity();

    auto dispatch = policy.next_dispatch(view);
    double dispatch_time = std::numeric_limits<double>::infinity();
    if (dispatch) {
      MWC_ASSERT_MSG(dispatch->time >= view.now_ - kTimeTolerance,
                     "policy scheduled a dispatch in the past");
      MWC_ASSERT_MSG(!dispatch->sensors.empty(),
                     "policy scheduled an empty dispatch");
      dispatch_time = std::max(dispatch->time, view.now_);
    }

    const double t_next = std::min({next_slot_time, dispatch_time, T});
    advance_to(t_next);
    if (view.now_ >= T) break;

    if (dispatch && dispatch_time <= t_next + kTimeTolerance &&
        dispatch_time <= next_slot_time) {
      // Execute the dispatch.
      MWC_OBS_SCOPE("sim.dispatch");
      const bool first_round =
          options_.record_first_dispatch && result.num_dispatches == 0;
      if (first_round) first_round_.emplace();
      const auto cost = dispatch_cost(
          dispatch->sensors, first_round ? &*first_round_ : nullptr);
      result.service_cost += cost.total;
      for (std::size_t l = 0; l < cost.per_depot.size(); ++l)
        result.per_charger_cost[l] += cost.per_depot[l];
      ++result.num_dispatches;
      result.num_sensor_charges += dispatch->sensors.size();
      double dispatch_margin = std::numeric_limits<double>::infinity();
      for (std::size_t id : dispatch->sensors) {
        dispatch_margin = std::min(dispatch_margin, view.residual_[id]);
        view.residual_[id] = view.cycles_[id];
        currently_dead[id] = 0;
      }
      result.min_residual_at_charge =
          std::min(result.min_residual_at_charge, dispatch_margin);
      MWC_OBS_COUNT("sim.dispatches");
      MWC_OBS_COUNT_N("sim.sensor_charges", dispatch->sensors.size());
      MWC_OBS_GAUGE_ADD("sim.service_cost_total", cost.total);
      // Tightest residual lifetime among this round's sensors: the margin
      // by which the policy beat depletion (time units of the cycle τ).
      MWC_OBS_HISTOGRAM("sim.residual_margin", dispatch_margin, 0.5, 1.0,
                        2.0, 5.0, 10.0, 20.0, 50.0);
      policy.on_dispatch_executed(view, *dispatch);
      if (options_.record_dispatches ||
          (options_.record_first_dispatch && result.dispatch_log.empty())) {
        result.dispatch_log.push_back(DispatchRecord{
            dispatch_time, std::move(dispatch->sensors), cost.total});
      }
      if (result.num_dispatches > options_.max_dispatches)
        throw DispatchCapError(
            "dispatch cap of " + std::to_string(options_.max_dispatches) +
            " exceeded (runaway policy, or horizon too long for the cycles)");
      continue;
    }

    if (variable && view.now_ + kTimeTolerance >= next_slot_time) {
      // Slot boundary: redraw cycles; residual energy *fraction* carries
      // over, so residual lifetime rescales by τ_new / τ_old.
      ++slot;
      // Runs once per slot, not per event; GCC would not vectorize the
      // guarded division anyway.
      auto new_cycles = cycle_model_.cycles_at_slot(slot);
      for (std::size_t i = 0; i < n; ++i) {
        const double old_tau = view.cycles_[i];
        if (old_tau > 0.0) view.residual_[i] *= new_cycles[i] / old_tau;
      }
      view.cycles_ = std::move(new_cycles);
      policy.on_cycles_updated(view);
    }
  }

  // SimResult's cache counters and wall time are sourced from the
  // per-instance metrics registry (fields kept, values identical to the
  // pre-registry hand-threaded members).
  result.tour_cache_hits = cache_hits_c_.value() - hits_before;
  result.tour_cache_misses = cache_misses_c_.value() - misses_before;
  result.tour_builds = builds_c_.value() - builds_before;
  obs::Gauge& wall = metrics_.gauge("sim.run_wall_seconds");
  wall.set(timer.elapsed_seconds());
  result.wall_seconds = wall.value();
  return result;
}

}  // namespace mwc::sim
