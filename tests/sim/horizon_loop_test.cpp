// Bit-identity of Simulator::run's horizon loop against the scalar
// reference loop (tests/support/reference_sim.hpp), and agreement of its
// deaths with the independent battery replay. The instances are chosen to
// record deaths: a charge-everyone period above τ_min, Greedy with
// prediction lag under slot redraws, and residuals placed exactly on the
// depletion tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "../support/reference_sim.hpp"
#include "charging/baselines.hpp"
#include "charging/greedy.hpp"
#include "charging/min_total_distance.hpp"
#include "charging/var_heuristic.hpp"
#include "sim/replay.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "wsn/deployment.hpp"
#include "wsn/trace.hpp"

namespace mwc::sim {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every field but wall_seconds, doubles compared by bit pattern.
void expect_identical(const SimResult& got, const SimResult& want,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(bits(got.service_cost), bits(want.service_cost));
  ASSERT_EQ(got.per_charger_cost.size(), want.per_charger_cost.size());
  for (std::size_t l = 0; l < got.per_charger_cost.size(); ++l)
    EXPECT_EQ(bits(got.per_charger_cost[l]), bits(want.per_charger_cost[l]));
  EXPECT_EQ(got.num_dispatches, want.num_dispatches);
  EXPECT_EQ(got.num_sensor_charges, want.num_sensor_charges);
  EXPECT_EQ(got.dead_sensors, want.dead_sensors);
  ASSERT_EQ(got.deaths.size(), want.deaths.size());
  for (std::size_t k = 0; k < got.deaths.size(); ++k) {
    EXPECT_EQ(got.deaths[k].sensor, want.deaths[k].sensor) << "death " << k;
    EXPECT_EQ(bits(got.deaths[k].time), bits(want.deaths[k].time))
        << "death " << k;
  }
  ASSERT_EQ(got.dispatch_log.size(), want.dispatch_log.size());
  for (std::size_t k = 0; k < got.dispatch_log.size(); ++k) {
    EXPECT_EQ(bits(got.dispatch_log[k].time), bits(want.dispatch_log[k].time));
    EXPECT_EQ(got.dispatch_log[k].sensors, want.dispatch_log[k].sensors);
    EXPECT_EQ(bits(got.dispatch_log[k].cost), bits(want.dispatch_log[k].cost));
  }
  EXPECT_EQ(bits(got.min_residual_at_charge),
            bits(want.min_residual_at_charge));
  EXPECT_EQ(got.tour_cache_hits, want.tour_cache_hits);
  EXPECT_EQ(got.tour_cache_misses, want.tour_cache_misses);
  EXPECT_EQ(got.tour_builds, want.tour_builds);
}

/// Charges every sensor every `period` (the PeriodicAll baseline with its
/// period set by hand): sensors whose cycle is shorter die each period.
class EveryoneEvery final : public charging::Policy {
 public:
  explicit EveryoneEvery(double period) : period_(period) {}
  std::string name() const override { return "EveryoneEvery"; }
  void reset(const charging::StateView&) override { next_ = period_; }
  std::optional<charging::Dispatch> next_dispatch(
      const charging::StateView& view) override {
    if (next_ >= view.horizon()) return std::nullopt;
    charging::Dispatch dispatch;
    dispatch.time = next_;
    for (std::size_t i = 0; i < view.network().n(); ++i)
      dispatch.sensors.push_back(i);
    return dispatch;
  }
  void on_dispatch_executed(const charging::StateView&,
                            const charging::Dispatch& dispatch) override {
    next_ = dispatch.time + period_;
  }

 private:
  double period_;
  double next_ = 0.0;
};

/// Dispatches a fixed list, oldest first.
class Scripted final : public charging::Policy {
 public:
  explicit Scripted(std::vector<charging::Dispatch> script)
      : script_(std::move(script)) {}
  std::string name() const override { return "Scripted"; }
  void reset(const charging::StateView&) override { next_ = 0; }
  std::optional<charging::Dispatch> next_dispatch(
      const charging::StateView&) override {
    if (next_ >= script_.size()) return std::nullopt;
    return script_[next_];
  }
  void on_dispatch_executed(const charging::StateView&,
                            const charging::Dispatch&) override {
    ++next_;
  }

 private:
  std::vector<charging::Dispatch> script_;
  std::size_t next_ = 0;
};

wsn::Network network_of(std::size_t n, std::uint64_t seed) {
  wsn::DeploymentConfig deployment;
  deployment.n = n;
  deployment.q = 3;
  Rng rng(seed);
  return wsn::deploy_random(deployment, rng);
}

wsn::CycleModel cycles_of(const wsn::Network& network, double sigma,
                          std::uint64_t seed) {
  wsn::CycleModelConfig config;
  config.tau_min = 1.0;
  config.tau_max = 30.0;
  config.sigma = sigma;
  return wsn::CycleModel(network, config, seed);
}

SimOptions options_of(double slot_length) {
  SimOptions options;
  options.horizon = 150.0;
  options.slot_length = slot_length;
  options.record_dispatches = true;
  return options;
}

/// Runs `policy` through the simulator and the scalar reference, and the
/// simulator's log through the battery replay.
SimResult run_all_three(const wsn::Network& network,
                        const wsn::CycleProcess& cycles,
                        const SimOptions& options, charging::Policy& policy,
                        const std::string& label) {
  Simulator simulator(network, cycles, options);
  const SimResult got = simulator.run(policy);
  const SimResult want =
      testing::reference_run(network, cycles, options, policy);
  expect_identical(got, want, label);

  SCOPED_TRACE(label + " vs battery replay");
  const auto replay = replay_with_batteries(
      network, cycles, options.horizon, options.slot_length, got.dispatch_log);
  EXPECT_EQ(replay.dead_sensors, got.dead_sensors);
  EXPECT_EQ(replay.deaths.size(), got.deaths.size());
  for (std::size_t k = 0;
       k < std::min(replay.deaths.size(), got.deaths.size()); ++k) {
    EXPECT_EQ(replay.deaths[k].sensor, got.deaths[k].sensor);
    EXPECT_NEAR(replay.deaths[k].time, got.deaths[k].time, 1e-6);
  }
  return got;
}

TEST(HorizonLoop, PeriodAboveTauMinMatchesTheScalarLoop) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (double slot : {0.0, 10.0}) {
      const auto network = network_of(60, seed);
      const auto cycles = cycles_of(network, slot > 0.0 ? 3.0 : 0.0, seed);
      EveryoneEvery policy(8.0);  // τ_min is 1: short-cycle sensors die
      const std::string label =
          "seed " + std::to_string(seed) + " slot " + std::to_string(slot);
      SCOPED_TRACE(label);
      const auto result =
          run_all_three(network, cycles, options_of(slot), policy, label);
      EXPECT_GT(result.dead_sensors, 0u);
      EXPECT_GT(result.deaths.size(), result.dead_sensors);  // repeat deaths
    }
  }
}

TEST(HorizonLoop, LaggingGreedyUnderSlotRedrawsMatchesTheScalarLoop) {
  std::size_t deaths = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto network = network_of(60, seed);
    const auto cycles = cycles_of(network, 6.0, seed);
    charging::GreedyOptions greedy_options;
    greedy_options.prediction_gamma = 0.2;
    charging::GreedyPolicy policy(greedy_options);
    const auto result = run_all_three(network, cycles, options_of(7.5),
                                      policy, "seed " + std::to_string(seed));
    deaths += result.deaths.size();
  }
  EXPECT_GT(deaths, 0u);
}

TEST(HorizonLoop, RegistryPoliciesMatchTheScalarLoop) {
  for (double slot : {0.0, 10.0}) {
    const auto network = network_of(50, 7);
    const auto cycles = cycles_of(network, slot > 0.0 ? 3.0 : 0.0, 7);
    charging::MinTotalDistancePolicy mtd;
    charging::MinTotalDistanceVarPolicy var;
    charging::GreedyPolicy greedy;
    charging::PeriodicAllPolicy all;
    charging::PerSensorPeriodicPolicy per_sensor;
    for (charging::Policy* policy :
         std::vector<charging::Policy*>{&mtd, &var, &greedy, &all,
                                        &per_sensor}) {
      run_all_three(network, cycles, options_of(slot), *policy,
                    policy->name() + " slot " + std::to_string(slot));
    }
  }
}

TEST(HorizonLoop, PolishedRoundsMatchTheScalarLoop) {
  // 300 sensors over 3 depots: tours are past the exhaustive size cut-off,
  // so both loops polish over candidate graphs that q_rooted_tsp builds
  // per dispatch set.
  const auto network = network_of(300, 11);
  const auto cycles = cycles_of(network, 0.0, 11);
  SimOptions options = options_of(0.0);
  options.horizon = 60.0;
  options.tour_options.improve = true;
  charging::MinTotalDistancePolicy mtd;
  charging::GreedyPolicy greedy;
  EveryoneEvery all(2.0);
  for (charging::Policy* policy :
       std::vector<charging::Policy*>{&mtd, &greedy, &all}) {
    const auto result =
        run_all_three(network, cycles, options, *policy, policy->name());
    EXPECT_GT(result.num_dispatches, 1u);
  }
}

TEST(HorizonLoop, ResidualExactlyAtTheToleranceSurvivesTheStep) {
  // The first step runs from t = 0 to the dispatch at 1.5, so the loop
  // compares each residual with limit = 1.5 - 1e-9. Sensor 0 sits exactly
  // on it (not depleted, then aged to 0); sensor 1 is one ulp below (a
  // death at 1.5 - 1e-9 - ulp); sensor 2 has slack. Only sensor 2 is
  // charged at 1.5, so sensor 0 dies at the next step, from a residual
  // of 0.
  const auto network = network_of(3, 5);
  const double limit = 1.5 - 1e-9;
  const double below = std::nextafter(limit, 0.0);
  const wsn::TraceCycleProcess cycles({{limit, below, 10.0}});
  Scripted policy({charging::Dispatch{1.5, {2}},
                   charging::Dispatch{3.0, {0, 1, 2}}});
  SimOptions options;
  options.horizon = 4.0;
  options.record_dispatches = true;

  Simulator simulator(network, cycles, options);
  const SimResult got = simulator.run(policy);
  expect_identical(got, testing::reference_run(network, cycles, options,
                                               policy),
                   "boundary");
  ASSERT_EQ(got.deaths.size(), 2u);
  EXPECT_EQ(got.deaths[0].sensor, 1u);
  EXPECT_EQ(bits(got.deaths[0].time), bits(below));
  EXPECT_EQ(got.deaths[1].sensor, 0u);
  EXPECT_EQ(bits(got.deaths[1].time), bits(1.5));
  EXPECT_EQ(got.dead_sensors, 2u);

  // The same schedule with slot redraws: the trace holds its one row for
  // every slot, so each boundary rescales by exactly 1.
  options.slot_length = 0.75;
  Simulator slotted(network, cycles, options);
  expect_identical(slotted.run(policy),
                   testing::reference_run(network, cycles, options, policy),
                   "boundary, slot 0.75");
}

}  // namespace
}  // namespace mwc::sim
