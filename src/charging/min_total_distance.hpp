// Algorithm 3 of the paper: MinTotalDistance, the 2(K+2)-approximation for
// the service cost minimization problem with fixed maximum charging cycles.
//
// Construction: round cycles geometrically (charging/rounding.hpp), then
// dispatch at every multiple of τ_1 — round j charges the union of all
// classes V_k whose cycle 2^k τ_1 divides j τ_1. The paper builds rounds
// 1..2^K and repeats them with period τ'_n = 2^K τ_1 for T = 2m τ'_n; the
// equivalent closed form used here (valid for arbitrary T, no divisibility
// assumption) dispatches at j τ_1 for every j >= 1 with j τ_1 < T. A V_k
// sensor is then charged exactly every 2^k τ_1 = τ'_i <= τ_i, and its last
// charge is within τ'_i of T, so the schedule is feasible (Lemma 2).
#pragma once

#include <deque>

#include "charging/rounding.hpp"
#include "charging/schedule.hpp"
#include "tsp/qrooted.hpp"

namespace mwc::charging {

/// Online-policy form, consumed by the simulator.
class MinTotalDistancePolicy final : public Policy {
 public:
  MinTotalDistancePolicy() = default;

  std::string name() const override { return "MinTotalDistance"; }

  void reset(const StateView& view) override;
  std::optional<Dispatch> next_dispatch(const StateView& view) override;
  void on_dispatch_executed(const StateView& view,
                            const Dispatch& dispatch) override;

  /// The K+1 distinct round classes (round j's set depends only on its
  /// depth, and round 2^k has depth k), so the simulator can pre-cost
  /// every set this policy will ever dispatch. Entry k covers V_0..V_k.
  std::vector<std::vector<std::size_t>> planned_dispatch_sets(
      const StateView& view) const override;

  const CyclePartition& partition() const noexcept { return partition_; }

 private:
  CyclePartition partition_;
  /// round_sets_by_depth(partition_), built once per reset(): round j
  /// dispatches depth_sets_[round_depth(partition_, j)], so a dispatch
  /// costs one O(|set|) copy and no sort.
  std::vector<std::vector<std::size_t>> depth_sets_;
  std::size_t next_round_ = 1;
};

/// Offline form: the complete schedule for period T plus its tours and
/// exact service cost. Used by tests (feasibility, approximation-ratio
/// experiments) and by examples that want the tours themselves.
struct BuiltSchedule {
  CyclePartition partition;
  std::vector<Dispatch> dispatches;  ///< all dispatches in (0, T), in order
  /// Tours of the j-th *distinct* round class: entry k holds the tours of
  /// a round whose depth is k (rounds repeat; only K+1 distinct sets
  /// exist). tours_by_depth[k] covers classes V_0..V_k.
  std::vector<tsp::QRootedTours> tours_by_depth;
  double total_cost = 0.0;           ///< service cost over the whole period
};

BuiltSchedule build_min_total_distance_schedule(
    const wsn::Network& network, const std::vector<double>& cycles, double T,
    const tsp::QRootedOptions& tour_options = {});

}  // namespace mwc::charging
