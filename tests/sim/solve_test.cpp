#include "sim/solve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "charging/min_total_distance.hpp"
#include "util/rng.hpp"
#include "wsn/cycles.hpp"
#include "wsn/deployment.hpp"

namespace mwc::sim {
namespace {

wsn::Network small_network(std::uint64_t seed = 3) {
  wsn::DeploymentConfig config;
  config.n = 30;
  config.q = 3;
  config.field_side = 400.0;
  Rng rng(seed, 0);
  return wsn::deploy_random(config, rng);
}

TEST(SolveNetwork, FirstRoundMatchesDispatchLog) {
  const wsn::Network network = small_network();
  const wsn::CycleModel cycles(network, wsn::CycleModelConfig{}, 11);
  SimOptions options;
  options.horizon = 300.0;

  charging::MinTotalDistancePolicy policy;
  const SolveOutcome outcome =
      solve_network(network, cycles, options, policy);

  ASSERT_FALSE(outcome.result.dispatch_log.empty());
  const auto& first = outcome.result.dispatch_log.front();
  const RoundPlan& round = outcome.first_round;
  EXPECT_EQ(round.sensors, first.sensors);
  EXPECT_EQ(round.tours.size(), network.q());
  ASSERT_EQ(round.tour_lengths.size(), round.tours.size());

  // The rebuilt tours cost exactly what the simulator charged the round.
  EXPECT_DOUBLE_EQ(round.total_length, first.cost);
  double sum = 0.0;
  for (double len : round.tour_lengths) sum += len;
  EXPECT_NEAR(sum, round.total_length, 1e-9);

  // Tours are in combined labels and partition the dispatch set: every
  // listed sensor appears in exactly one tour.
  std::vector<std::size_t> covered;
  for (const auto& tour : round.tours) {
    for (std::size_t node : tour.order()) {
      if (node >= network.q()) covered.push_back(node - network.q());
    }
  }
  std::vector<std::size_t> expected = first.sensors;
  std::sort(covered.begin(), covered.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(covered, expected);
}

TEST(SolveNetwork, LogsOnlyTheFirstDispatch) {
  // solve_network keeps one sensor set, not one per round; every other
  // SimResult field matches a full-log run bit for bit.
  const wsn::Network network = small_network(5);
  wsn::CycleModelConfig config;
  config.tau_min = 1.0;
  config.tau_max = 4.0;
  const wsn::CycleModel cycles(network, config, 9);
  SimOptions options;
  options.horizon = 400.0;
  options.slot_length = 50.0;

  charging::MinTotalDistancePolicy served_policy;
  const SolveOutcome served =
      solve_network(network, cycles, options, served_policy);

  SimOptions full_log = options;
  full_log.record_dispatches = true;
  Simulator simulator(network, cycles, full_log);
  charging::MinTotalDistancePolicy policy;
  const SimResult full = simulator.run(policy);

  ASSERT_GT(full.dispatch_log.size(), 10u);
  ASSERT_EQ(served.result.dispatch_log.size(), 1u);
  const DispatchRecord& first = served.result.dispatch_log.front();
  EXPECT_EQ(first.time, full.dispatch_log.front().time);
  EXPECT_EQ(first.sensors, full.dispatch_log.front().sensors);
  EXPECT_EQ(first.cost, full.dispatch_log.front().cost);

  const SimResult& r = served.result;
  EXPECT_EQ(r.service_cost, full.service_cost);
  EXPECT_EQ(r.per_charger_cost, full.per_charger_cost);
  EXPECT_EQ(r.num_dispatches, full.num_dispatches);
  EXPECT_EQ(r.num_sensor_charges, full.num_sensor_charges);
  EXPECT_EQ(r.dead_sensors, full.dead_sensors);
  ASSERT_EQ(r.deaths.size(), full.deaths.size());
  for (std::size_t i = 0; i < r.deaths.size(); ++i) {
    EXPECT_EQ(r.deaths[i].sensor, full.deaths[i].sensor);
    EXPECT_EQ(r.deaths[i].time, full.deaths[i].time);
  }
  EXPECT_EQ(r.min_residual_at_charge, full.min_residual_at_charge);
  EXPECT_EQ(r.tour_cache_hits, full.tour_cache_hits);
  EXPECT_EQ(r.tour_cache_misses, full.tour_cache_misses);
}

TEST(SolveNetwork, DeterministicAcrossCalls) {
  const wsn::Network network = small_network(7);
  const wsn::CycleModel cycles(network, wsn::CycleModelConfig{}, 5);
  SimOptions options;
  options.horizon = 200.0;

  charging::MinTotalDistancePolicy p1, p2;
  const SolveOutcome a = solve_network(network, cycles, options, p1);
  const SolveOutcome b = solve_network(network, cycles, options, p2);
  EXPECT_DOUBLE_EQ(a.result.service_cost, b.result.service_cost);
  ASSERT_EQ(a.first_round.tours.size(), b.first_round.tours.size());
  for (std::size_t t = 0; t < a.first_round.tours.size(); ++t)
    EXPECT_EQ(a.first_round.tours[t].order(),
              b.first_round.tours[t].order());
}

TEST(SolveNetwork, EmptyRoundPlanWhenPolicyNeverDispatches) {
  const wsn::Network network = small_network();
  const wsn::CycleModel cycles(network, wsn::CycleModelConfig{}, 11);
  SimOptions options;
  options.horizon = 300.0;

  // A policy that never schedules anything.
  class Idle final : public charging::Policy {
   public:
    std::string name() const override { return "Idle"; }
    void reset(const charging::StateView&) override {}
    std::optional<charging::Dispatch> next_dispatch(
        const charging::StateView&) override {
      return std::nullopt;
    }
    void on_dispatch_executed(const charging::StateView&,
                              const charging::Dispatch&) override {}
  };
  Idle idle;
  const SolveOutcome outcome =
      solve_network(network, cycles, options, idle);
  EXPECT_TRUE(outcome.result.dispatch_log.empty());
  EXPECT_TRUE(outcome.first_round.tours.empty());
  EXPECT_DOUBLE_EQ(outcome.first_round.total_length, 0.0);
}

}  // namespace
}  // namespace mwc::sim
