#include "sim/solve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "charging/min_total_distance.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "tsp/candidates.hpp"
#include "util/rng.hpp"
#include "wsn/cycles.hpp"
#include "wsn/deployment.hpp"
#include "wsn/trace.hpp"

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

  // The served tours cost exactly what the simulator charged the round.
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

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::uint64_t global_count(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Solves with polish on and checks that the served first round is the
/// costed one: its total is the logged round cost bit for bit, its set
/// was built once (by the simulator, never again by solve_network) and
/// its candidate graph is the one that build made.
SolveOutcome expect_served_is_costed(const wsn::Network& network,
                                     const wsn::CycleProcess& cycles,
                                     double horizon) {
  SimOptions options;
  options.horizon = horizon;
  options.tour_options.improve = true;
  charging::MinTotalDistancePolicy policy;
  const std::uint64_t tours_before = global_count("tsp.tours_built");
  const std::uint64_t graphs_before = global_count("tsp.cand.rebuilds");
  SolveOutcome outcome = solve_network(network, cycles, options, policy);

  const SimResult& r = outcome.result;
  EXPECT_GT(r.num_dispatches, 1u);
  EXPECT_EQ(r.dispatch_log.size(), 1u);
  if (r.dispatch_log.empty()) return outcome;
  const RoundPlan& round = outcome.first_round;
  EXPECT_EQ(round.sensors, r.dispatch_log.front().sensors);
  EXPECT_EQ(bits(round.total_length), bits(r.dispatch_log.front().cost));

  // Every distinct set is built once and the first round is not rebuilt:
  // the simulator's own count holds in every build, the library-wide
  // telemetry wherever it is compiled in.
  EXPECT_EQ(r.tour_builds, r.tour_cache_misses);
#if MWC_OBS_ENABLED
  EXPECT_EQ(global_count("tsp.tours_built") - tours_before,
            network.q() * r.tour_cache_misses);
  EXPECT_EQ(global_count("tsp.cand.rebuilds") - graphs_before,
            r.tour_cache_misses);
#else
  (void)tours_before;
  (void)graphs_before;
#endif

  // The handed-over graph is the round's: q depots + its sensors.
  std::vector<geom::Point> points(network.depots().begin(),
                                  network.depots().end());
  for (const std::size_t id : round.sensors)
    points.push_back(network.sensor_points()[id]);
  const auto fresh = tsp::CandidateGraph::build(
      points, options.tour_options.candidate_options);
  EXPECT_EQ(outcome.round_candidates.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const auto got = outcome.round_candidates.neighbors(i);
    const auto want = fresh.neighbors(i);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "row " << i;
  }
  return outcome;
}

TEST(SolveNetwork, PolishedFirstRoundOfEverySensorIsTheCostedRound) {
  // τ ∈ [5, 5.25]: MinTotalDistance charges all 800 sensors every round.
  wsn::DeploymentConfig config;
  config.n = 800;
  config.q = 5;
  Rng rng(21, 0);
  const wsn::Network network = wsn::deploy_random(config, rng);
  std::vector<double> tau(network.n());
  for (double& t : tau) t = 5.0 + rng.uniform(0.0, 0.25);
  const wsn::TraceCycleProcess cycles({tau});

  const SolveOutcome outcome = expect_served_is_costed(network, cycles, 60.0);
  EXPECT_EQ(outcome.first_round.sensors.size(), network.n());
  EXPECT_EQ(outcome.result.tour_builds, 1u);
}

TEST(SolveNetwork, PolishedFirstRoundOfASubsetIsTheCostedRound) {
  wsn::DeploymentConfig config;
  config.n = 400;
  config.q = 4;
  Rng rng(22, 0);
  const wsn::Network network = wsn::deploy_random(config, rng);
  wsn::CycleModelConfig cycle_config;
  cycle_config.tau_min = 1.0;
  cycle_config.tau_max = 4.0;
  const wsn::CycleModel cycles(network, cycle_config, 13);

  const SolveOutcome outcome = expect_served_is_costed(network, cycles, 40.0);
  EXPECT_LT(outcome.first_round.sensors.size(), network.n());
  // A polished subset round, not one under the exhaustive size cut-off.
  EXPECT_GT(outcome.first_round.sensors.size(), 100u);
  EXPECT_GT(outcome.result.tour_cache_misses, 1u);
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
  EXPECT_EQ(r.tour_builds, full.tour_builds);
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
