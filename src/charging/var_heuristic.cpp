#include "charging/var_heuristic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tsp/qrooted.hpp"
#include "util/assert.hpp"

namespace mwc::charging {

MinTotalDistanceVarPolicy::MinTotalDistanceVarPolicy(
    const VarHeuristicOptions& options)
    : options_(options) {}

void MinTotalDistanceVarPolicy::reset(const StateView& view) {
  const std::size_t n = view.network().n();
  reported_cycle_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) reported_cycle_[i] = view.cycle(i);
  assigned_.assign(n, 0.0);
  recompute_count_ = 0;
  plan_.clear();
  recompute_plan(view);
  // reset() counts as the initial plan, not a re-computation.
  recompute_count_ = 0;
}

std::optional<Dispatch> MinTotalDistanceVarPolicy::next_dispatch(
    const StateView& view) {
  // Drop stale entries (can appear if a recompute raced past old times).
  while (!plan_.empty() && plan_.front().time < view.now() - 1e-9)
    plan_.pop_front();
  if (plan_.empty()) return std::nullopt;
  if (plan_.front().time >= view.horizon()) return std::nullopt;
  return plan_.front();
}

void MinTotalDistanceVarPolicy::on_dispatch_executed(
    const StateView& /*view*/, const Dispatch& dispatch) {
  MWC_ASSERT(!plan_.empty());
  MWC_ASSERT(std::abs(plan_.front().time - dispatch.time) < 1e-9);
  plan_.pop_front();
}

bool MinTotalDistanceVarPolicy::plan_still_applicable(
    const StateView& /*view*/) const {
  for (std::size_t i = 0; i < assigned_.size(); ++i) {
    const double reported = reported_cycle_[i];
    const double assigned = assigned_[i];
    if (assigned <= 0.0) return false;
    // Paper's rule: keep the plan iff τ̂'(t-1) <= τ̂(t) < 2 τ̂'(t-1).
    // Below the assigned cycle the plan is infeasible; at 2x or above it
    // is overly conservative (wasted service cost), so rebuild too.
    if (reported < assigned * (1.0 - 1e-12)) return false;
    if (reported >= 2.0 * assigned) return false;
  }
  return true;
}

void MinTotalDistanceVarPolicy::on_cycles_updated(const StateView& view) {
  // Sensors report only when their cycle moved enough (variation
  // threshold); the base station acts on the reported values.
  bool any_report = false;
  for (std::size_t i = 0; i < reported_cycle_.size(); ++i) {
    const double current = view.cycle(i);
    const double baseline = reported_cycle_[i];
    const double rel_change =
        baseline > 0.0 ? std::abs(current - baseline) / baseline
                       : std::numeric_limits<double>::infinity();
    if (rel_change > options_.report_threshold ||
        (options_.report_threshold == 0.0 && current != baseline)) {
      reported_cycle_[i] = current;
      any_report = true;
    }
  }
  if (!any_report) return;
  if (plan_still_applicable(view)) return;
  recompute_plan(view);
}

void MinTotalDistanceVarPolicy::recompute_plan(const StateView& view) {
  ++recompute_count_;
  plan_.clear();

  const auto& network = view.network();
  const std::size_t n = network.n();
  if (n == 0) return;
  const double t = view.now();
  const double T = view.horizon();

  // Step 1: Algorithm 3 on the reported cycles, shifted to start at t.
  const CyclePartition partition = partition_by_cycles(reported_cycle_);
  assigned_ = partition.assigned;
  const double tau1 = partition.tau1;

  const auto depth_sets = round_sets_by_depth(partition);
  std::vector<Dispatch> dispatches;
  for (std::size_t j = 1;; ++j) {
    const double time = t + static_cast<double>(j) * tau1;
    if (time >= T) break;
    Dispatch d;
    d.time = time;
    d.sensors = depth_sets[round_depth(partition, j)];
    dispatches.push_back(std::move(d));
  }

  // Step 2: rescue set V^a — sensors whose residual life cannot reach
  // their first planned charge (at t + τ̂'_i).
  std::vector<std::size_t> rescue;
  for (std::size_t i = 0; i < n; ++i) {
    if (view.residual_life(i) < assigned_[i]) rescue.push_back(i);
  }

  // (C'_0, t): sensors that cannot even survive one τ̂_1.
  Dispatch c0;
  c0.time = t;
  std::vector<std::vector<std::size_t>> rescue_by_level(partition.K + 1);
  for (std::size_t i : rescue) {
    const double life = view.residual_life(i);
    if (life < tau1) {
      c0.sensors.push_back(i);
      continue;
    }
    // 2^k τ̂_1 <= life < 2^(k+1) τ̂_1, capped at K.
    std::size_t k = 0;
    while (k < partition.K && partition.class_cycle(k + 1) <= life) ++k;
    rescue_by_level[k].push_back(i);
  }

  // Step 3: fold each V^a_k into the earliest 2^k + 1 schedulings via one
  // q-rooted MSF on the auxiliary graph G^(k). Scheduling node sets grow
  // as earlier iterations insert sensors, matching the paper's
  // V(C^(k+1)_j) recurrence.
  const auto& points = network.sensor_points();
  const auto& depots = network.depots();

  // scheduling_sets[0] is C'_0; scheduling_sets[j] aliases dispatches[j-1].
  auto scheduling_sensors = [&](std::size_t j) -> std::vector<std::size_t>& {
    return j == 0 ? c0.sensors : dispatches[j - 1].sensors;
  };
  const std::size_t num_schedulings = dispatches.size() + 1;

  for (std::size_t k = 0; k <= partition.K; ++k) {
    const auto& level = rescue_by_level[k];
    if (level.empty()) continue;
    const std::size_t num_roots =
        std::min(num_schedulings, (std::size_t{1} << k) + 1);
    if (num_roots == 0) break;

    std::vector<geom::Point> level_points;
    level_points.reserve(level.size());
    for (std::size_t i : level) level_points.push_back(points[i]);

    // Roots are presented latest-scheduling-first: every scheduling
    // contains the depot set R, so a rescue sensor far from all scheduled
    // sensors is equidistant to every root — the tie must go to the
    // *latest* admissible scheduling (charging it any earlier than its
    // residual life requires only adds service cost).
    const auto scheduling_of_root = [num_roots](std::size_t root) {
      return num_roots - 1 - root;
    };
    const auto root_dist = [&](std::size_t root,
                               std::size_t local) -> double {
      const geom::Point& p = level_points[local];
      double best = std::numeric_limits<double>::infinity();
      for (const auto& depot : depots)
        best = std::min(best, geom::distance(p, depot));
      for (std::size_t sid : scheduling_sensors(scheduling_of_root(root)))
        best = std::min(best, geom::distance(p, points[sid]));
      return best;
    };

    const auto assignment =
        tsp::q_rooted_msf_assign(num_roots, root_dist, level_points);
    for (std::size_t root = 0; root < num_roots; ++root) {
      auto& target = scheduling_sensors(scheduling_of_root(root));
      for (std::size_t local : assignment.groups[root])
        target.push_back(level[local]);
    }
  }

  // Assemble the final plan: C'_0 first (only if it charges someone),
  // then the modified round stream.
  if (!c0.sensors.empty()) {
    normalize(c0);
    plan_.push_back(std::move(c0));
  }
  for (auto& d : dispatches) {
    normalize(d);
    plan_.push_back(std::move(d));
  }
}

}  // namespace mwc::charging
