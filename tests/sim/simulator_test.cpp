#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <vector>

#include "../support/dense_msf.hpp"
#include "charging/greedy.hpp"
#include "charging/min_total_distance.hpp"
#include "obs/registry.hpp"
#include "tsp/construct.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "wsn/deployment.hpp"

namespace mwc::sim {
namespace {

wsn::Network test_network(std::size_t n, std::size_t q, std::uint64_t seed) {
  wsn::DeploymentConfig config;
  config.n = n;
  config.q = q;
  config.field_side = 1000.0;
  Rng rng(seed);
  return wsn::deploy_random(config, rng);
}

wsn::CycleModel fixed_cycles(const wsn::Network& net, double tau_min,
                             double tau_max, std::uint64_t seed,
                             double sigma = 0.0) {
  wsn::CycleModelConfig config;
  config.tau_min = tau_min;
  config.tau_max = tau_max;
  config.sigma = sigma;
  return wsn::CycleModel(net, config, seed);
}

/// Policy that never dispatches: every sensor dies exactly once.
class DoNothingPolicy final : public charging::Policy {
 public:
  std::string name() const override { return "DoNothing"; }
  void reset(const charging::StateView&) override {}
  std::optional<charging::Dispatch> next_dispatch(
      const charging::StateView&) override {
    return std::nullopt;
  }
  void on_dispatch_executed(const charging::StateView&,
                            const charging::Dispatch&) override {}
};

/// Policy that dispatches a scripted list.
class ScriptedPolicy final : public charging::Policy {
 public:
  explicit ScriptedPolicy(std::vector<charging::Dispatch> script)
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

TEST(Simulator, DoNothingKillsEverySensor) {
  const auto net = test_network(20, 2, 1);
  const auto cycles = fixed_cycles(net, 1.0, 50.0, 1);
  SimOptions options;
  options.horizon = 100.0;
  Simulator simulator(net, cycles, options);
  DoNothingPolicy policy;
  const auto result = simulator.run(policy);
  EXPECT_EQ(result.dead_sensors, 20u);
  EXPECT_EQ(result.deaths.size(), 20u);
  EXPECT_EQ(result.service_cost, 0.0);
  EXPECT_FALSE(result.feasible());
}

TEST(Simulator, DeathTimesMatchCycles) {
  const auto net = test_network(10, 1, 2);
  const auto cycles = fixed_cycles(net, 2.0, 30.0, 2);
  SimOptions options;
  options.horizon = 100.0;
  Simulator simulator(net, cycles, options);
  DoNothingPolicy policy;
  const auto result = simulator.run(policy);
  // Sensor i dies exactly at its cycle (fully charged at t=0).
  const auto taus = cycles.cycles_at_slot(0);
  ASSERT_EQ(result.deaths.size(), 10u);
  for (const auto& death : result.deaths)
    EXPECT_NEAR(death.time, taus[death.sensor], 1e-6);
}

TEST(Simulator, ScriptedChargeKeepsSensorAlive) {
  const auto net = test_network(1, 1, 3);
  const auto cycles = fixed_cycles(net, 10.0, 10.0, 3);
  SimOptions options;
  options.horizon = 35.0;
  Simulator simulator(net, cycles, options);
  // Charges at 9, 18, 27 — always within the 10-unit cycle.
  ScriptedPolicy policy({{9.0, {0}}, {18.0, {0}}, {27.0, {0}}});
  const auto result = simulator.run(policy);
  EXPECT_TRUE(result.feasible());
  EXPECT_EQ(result.num_dispatches, 3u);
  EXPECT_EQ(result.num_sensor_charges, 3u);
}

TEST(Simulator, LateChargeRecordsDeath) {
  const auto net = test_network(1, 1, 4);
  const auto cycles = fixed_cycles(net, 10.0, 10.0, 4);
  SimOptions options;
  options.horizon = 30.0;
  Simulator simulator(net, cycles, options);
  ScriptedPolicy policy({{15.0, {0}}, {24.0, {0}}});  // first charge too late
  const auto result = simulator.run(policy);
  EXPECT_EQ(result.dead_sensors, 1u);
  ASSERT_EQ(result.deaths.size(), 1u);
  EXPECT_NEAR(result.deaths[0].time, 10.0, 1e-9);
}

TEST(Simulator, ServiceCostMatchesQRootedTours) {
  const auto net = test_network(15, 3, 5);
  const auto cycles = fixed_cycles(net, 20.0, 20.0, 5);
  SimOptions options;
  options.horizon = 15.0;
  Simulator simulator(net, cycles, options);

  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < net.n(); ++i) all.push_back(i);
  ScriptedPolicy policy({{5.0, all}});
  const auto result = simulator.run(policy);

  tsp::QRootedInstance instance;
  instance.depots = net.depots();
  instance.sensors = net.sensor_points();
  const auto tours = tsp::q_rooted_tsp(instance);
  EXPECT_NEAR(result.service_cost, tours.total_length, 1e-9);
  ASSERT_EQ(result.per_charger_cost.size(), net.q());
  double per_sum = 0.0;
  for (double c : result.per_charger_cost) per_sum += c;
  EXPECT_NEAR(per_sum, result.service_cost, 1e-9);
}

TEST(Simulator, DispatchCapThrowsTypedError) {
  // τ = 1 over a horizon of 100 needs ~100 rounds; a cap of 10 must end
  // the run with the typed error, not an abort.
  const auto net = test_network(10, 2, 8);
  const auto cycles = fixed_cycles(net, 1.0, 1.0, 8);
  SimOptions options;
  options.horizon = 100.0;
  options.max_dispatches = 10;
  Simulator simulator(net, cycles, options);
  charging::MinTotalDistancePolicy policy;
  EXPECT_THROW(simulator.run(policy), DispatchCapError);

  options.max_dispatches = 1000;
  Simulator roomy(net, cycles, options);
  EXPECT_NO_THROW(roomy.run(policy));
}

TEST(Simulator, CostCacheDoesNotChangeTotals) {
  const auto net = test_network(30, 3, 6);
  const auto cycles = fixed_cycles(net, 1.0, 20.0, 6);
  SimOptions cached;
  cached.horizon = 100.0;
  cached.cache_tour_costs = true;
  SimOptions uncached = cached;
  uncached.cache_tour_costs = false;

  charging::MinTotalDistancePolicy p1, p2;
  const auto r1 = Simulator(net, cycles, cached).run(p1);
  const auto r2 = Simulator(net, cycles, uncached).run(p2);
  EXPECT_NEAR(r1.service_cost, r2.service_cost, 1e-6);
  EXPECT_EQ(r1.num_dispatches, r2.num_dispatches);
}

TEST(Simulator, SlotRedrawRescalesResidualLife) {
  // One sensor, cycle switches between 10 (even slots) and 5 (odd slots)
  // via sigma... instead use a custom CycleModel: sigma>0 makes this
  // nondeterministic, so test the rescale indirectly: with slots on and a
  // DoNothing policy, the sensor must still die before max(tau) elapses.
  const auto net = test_network(5, 1, 7);
  wsn::CycleModelConfig config;
  config.tau_min = 4.0;
  config.tau_max = 8.0;
  config.sigma = 2.0;
  const wsn::CycleModel cycles(net, config, 7);
  SimOptions options;
  options.horizon = 50.0;
  options.slot_length = 2.0;
  Simulator simulator(net, cycles, options);
  DoNothingPolicy policy;
  const auto result = simulator.run(policy);
  EXPECT_EQ(result.dead_sensors, 5u);
  for (const auto& death : result.deaths) {
    EXPECT_GT(death.time, config.tau_min - 1e-9);
    EXPECT_LT(death.time, config.tau_max + 1e-9);
  }
}

TEST(Simulator, GreedyFeasibleOnFixedCycles) {
  const auto net = test_network(40, 5, 8);
  const auto cycles = fixed_cycles(net, 1.0, 50.0, 8);
  SimOptions options;
  options.horizon = 200.0;
  Simulator simulator(net, cycles, options);
  charging::GreedyPolicy policy;
  const auto result = simulator.run(policy);
  EXPECT_TRUE(result.feasible()) << result.dead_sensors << " deaths";
  EXPECT_GT(result.service_cost, 0.0);
  EXPECT_GT(result.num_dispatches, 0u);
}

TEST(Simulator, TripCapacityAddsReturnLegs) {
  const auto net = test_network(60, 3, 12);
  const auto cycles = fixed_cycles(net, 1.0, 20.0, 12);
  SimOptions unlimited;
  unlimited.horizon = 60.0;
  SimOptions limited = unlimited;
  limited.trip_capacity = 2000.0;  // metres per trip

  charging::MinTotalDistancePolicy p1, p2;
  const auto free_range = Simulator(net, cycles, unlimited).run(p1);
  const auto ranged = Simulator(net, cycles, limited).run(p2);
  EXPECT_GE(ranged.service_cost, free_range.service_cost - 1e-6);
  EXPECT_TRUE(ranged.feasible());
  EXPECT_EQ(ranged.num_dispatches, free_range.num_dispatches);
  ASSERT_EQ(ranged.per_charger_cost.size(), net.q());
  double per_sum = 0.0;
  for (double c : ranged.per_charger_cost) per_sum += c;
  EXPECT_NEAR(per_sum, ranged.service_cost, 1e-6 * (1 + per_sum));
}

TEST(Simulator, GenerousTripCapacityMatchesUnlimited) {
  const auto net = test_network(40, 2, 13);
  const auto cycles = fixed_cycles(net, 1.0, 15.0, 13);
  SimOptions unlimited;
  unlimited.horizon = 40.0;
  SimOptions generous = unlimited;
  generous.trip_capacity = 1e9;

  charging::MinTotalDistancePolicy p1, p2;
  const auto a = Simulator(net, cycles, unlimited).run(p1);
  const auto b = Simulator(net, cycles, generous).run(p2);
  EXPECT_NEAR(a.service_cost, b.service_cost, 1e-6 * (1 + a.service_cost));
}

TEST(Simulator, MinResidualTracksSlack) {
  const auto net = test_network(1, 1, 9);
  const auto cycles = fixed_cycles(net, 10.0, 10.0, 9);
  SimOptions options;
  options.horizon = 20.0;
  Simulator simulator(net, cycles, options);
  std::vector<charging::Dispatch> script{{7.0, {0}}};
  ScriptedPolicy policy(std::move(script));  // charge with 3 units left
  const auto result = simulator.run(policy);
  EXPECT_NEAR(result.min_residual_at_charge, 3.0, 1e-9);
}

TEST(Simulator, CacheHitsMatchRoundClasses) {
  // MinTotalDistance only ever dispatches K+1 distinct sensor sets (the
  // cumulative round classes), so a cold cache misses exactly K+1 times
  // and hits on every other dispatch.
  const auto net = test_network(30, 3, 14);
  const auto cycles = fixed_cycles(net, 1.0, 20.0, 14);
  SimOptions options;
  options.horizon = 100.0;
  Simulator simulator(net, cycles, options);
  charging::MinTotalDistancePolicy policy;
  const auto result = simulator.run(policy);

  const std::size_t classes = policy.partition().K + 1;
  EXPECT_EQ(result.tour_cache_misses, classes);
  EXPECT_EQ(result.tour_cache_hits, result.num_dispatches - classes);
}

TEST(Simulator, ResultCountersMatchMetricsRegistry) {
  // PR regression pin: SimResult's cache counters and wall time are now
  // sourced from the per-instance obs registry. The semantics must be
  // bit-identical to the old hand-threaded members — per-run deltas, a
  // second run over a warm cache hits everywhere, and the registry view
  // agrees with the struct fields.
  const auto net = test_network(30, 3, 14);
  const auto cycles = fixed_cycles(net, 1.0, 20.0, 14);
  SimOptions options;
  options.horizon = 100.0;
  Simulator simulator(net, cycles, options);
  charging::MinTotalDistancePolicy policy;
  const auto first = simulator.run(policy);

  const std::size_t classes = policy.partition().K + 1;
  EXPECT_EQ(first.tour_cache_misses, classes);
  EXPECT_EQ(first.tour_cache_hits, first.num_dispatches - classes);
  EXPECT_EQ(simulator.tour_cache_hits(), first.tour_cache_hits);
  EXPECT_EQ(simulator.tour_cache_misses(), first.tour_cache_misses);

  const obs::Registry& metrics = simulator.metrics();
  EXPECT_TRUE(metrics.contains("sim.tour_cache_hits"));
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("sim.tour_cache_hits"),
            first.tour_cache_hits);
  EXPECT_EQ(snap.counters.at("sim.tour_cache_misses"),
            first.tour_cache_misses);
  // wall_seconds round-trips through the registry gauge bit-exactly.
  EXPECT_EQ(first.wall_seconds, snap.gauges.at("sim.run_wall_seconds"));
  EXPECT_GE(first.wall_seconds, 0.0);

  // Second run on the same instance: warm cache, all hits; the struct
  // fields stay per-run deltas while the instrument totals accumulate.
  charging::MinTotalDistancePolicy policy2;
  const auto second = simulator.run(policy2);
  EXPECT_EQ(second.tour_cache_misses, 0u);
  EXPECT_EQ(second.tour_cache_hits, second.num_dispatches);
  EXPECT_EQ(simulator.tour_cache_hits(),
            first.tour_cache_hits + second.tour_cache_hits);
  EXPECT_EQ(simulator.tour_cache_misses(), first.tour_cache_misses);
}

TEST(Simulator, PrecostPolicyWarmsCache) {
  const auto net = test_network(30, 3, 15);
  const auto cycles = fixed_cycles(net, 1.0, 20.0, 15);
  SimOptions options;
  options.horizon = 100.0;
  Simulator simulator(net, cycles, options);
  charging::MinTotalDistancePolicy policy;

  ThreadPool pool(4);
  const std::size_t computed = simulator.precost_policy(policy, &pool);
  EXPECT_EQ(computed, policy.partition().K + 1);
  // Re-precosting finds everything cached.
  EXPECT_EQ(simulator.precost_policy(policy, &pool), 0u);

  const auto result = simulator.run(policy);
  EXPECT_EQ(result.tour_cache_misses, 0u);
  EXPECT_EQ(result.tour_cache_hits, result.num_dispatches);

  // Pre-warming must not change any outcome versus a cold simulator.
  charging::MinTotalDistancePolicy cold_policy;
  const auto cold = Simulator(net, cycles, options).run(cold_policy);
  EXPECT_EQ(result.service_cost, cold.service_cost);
  EXPECT_EQ(result.num_dispatches, cold.num_dispatches);
}

TEST(Simulator, FirstRoundIsTheCostingBuildOrOneIdenticalRebuild) {
  const auto net = test_network(300, 3, 17);
  const auto cycles = fixed_cycles(net, 2.0, 8.0, 17);
  SimOptions options;
  options.horizon = 40.0;
  options.tour_options.improve = true;
  options.record_first_dispatch = true;

  // Cold cache: the first round's tours are the build that costed it.
  Simulator cold(net, cycles, options);
  charging::MinTotalDistancePolicy cold_policy;
  const auto r = cold.run(cold_policy);
  EXPECT_GT(r.tour_cache_misses, 1u);
  EXPECT_EQ(r.tour_builds, r.tour_cache_misses);
  auto kept = cold.take_first_round();
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->total_length, r.dispatch_log.front().cost);
  EXPECT_EQ(kept->candidates.size(),
            net.q() + r.dispatch_log.front().sensors.size());
  EXPECT_FALSE(cold.take_first_round().has_value());  // moved out once

  // Precosted on a pool (each worker polishes over its own graph): the
  // run builds nothing but the first round's one rebuild, which is
  // identical to the costing build.
  Simulator warm(net, cycles, options);
  charging::MinTotalDistancePolicy warm_policy;
  ThreadPool pool(4);
  EXPECT_EQ(warm.precost_policy(warm_policy, &pool), r.tour_cache_misses);
  const auto w = warm.run(warm_policy);
  EXPECT_EQ(w.tour_cache_misses, 0u);
  EXPECT_EQ(w.tour_builds, 1u);
  EXPECT_EQ(w.service_cost, r.service_cost);
  const auto rebuilt = warm.take_first_round();
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->total_length, kept->total_length);
  ASSERT_EQ(rebuilt->tours.size(), kept->tours.size());
  for (std::size_t t = 0; t < kept->tours.size(); ++t)
    EXPECT_EQ(rebuilt->tours[t].order(), kept->tours[t].order());

  // Without record_first_dispatch nothing is kept or rebuilt.
  SimOptions plain = options;
  plain.record_first_dispatch = false;
  Simulator unrecorded(net, cycles, plain);
  charging::MinTotalDistancePolicy plain_policy;
  unrecorded.precost_policy(plain_policy, &pool);
  EXPECT_EQ(unrecorded.run(plain_policy).tour_builds, 0u);
  EXPECT_FALSE(unrecorded.take_first_round().has_value());
}

TEST(Simulator, CapacitatedFirstRoundKeepsItsAlgorithm2Tours) {
  const auto net = test_network(60, 3, 12);
  const auto cycles = fixed_cycles(net, 1.0, 20.0, 12);
  SimOptions options;
  options.horizon = 60.0;
  options.trip_capacity = 2000.0;
  options.record_first_dispatch = true;
  Simulator simulator(net, cycles, options);
  charging::MinTotalDistancePolicy policy;
  const auto r = simulator.run(policy);
  // Costing plans trips; the served round is one extra Algorithm-2 build.
  EXPECT_EQ(r.tour_builds, r.tour_cache_misses + 1);
  const auto kept = simulator.take_first_round();
  ASSERT_TRUE(kept.has_value());
  const auto& first = r.dispatch_log.front().sensors;
  const auto tours = tsp::q_rooted_tsp(simulator.dispatch_view(first),
                                       net.q(), options.tour_options);
  EXPECT_EQ(kept->total_length, tours.total_length);
  EXPECT_LE(kept->total_length, r.dispatch_log.front().cost + 1e-6);
}

TEST(Simulator, PrecostDispatchesDeduplicates) {
  const auto net = test_network(12, 2, 16);
  const auto cycles = fixed_cycles(net, 5.0, 10.0, 16);
  SimOptions options;
  options.horizon = 50.0;
  Simulator simulator(net, cycles, options);
  const std::vector<std::vector<std::size_t>> sets = {
      {0, 1, 2}, {3, 4}, {0, 1, 2}, {}};
  EXPECT_EQ(simulator.precost_dispatches(sets), 2u);
  EXPECT_EQ(simulator.precost_dispatches(sets), 0u);
}

TEST(Simulator, CandidateAccelerationStaysNearExhaustive) {
  // One full dispatch plus one proper subset, each polished over the
  // graph q_rooted_tsp builds for its set; candidate-mode costs must stay
  // within 1% of the exhaustive-polish reference.
  const auto net = test_network(40, 2, 7);
  const auto cycles = fixed_cycles(net, 50.0, 50.0, 7);
  std::vector<std::size_t> all(40);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < all.size(); i += 3) subset.push_back(i);
  const std::vector<charging::Dispatch> script{{5.0, all}, {15.0, subset}};

  SimOptions exhaustive;
  exhaustive.horizon = 30.0;
  exhaustive.tour_options.improve = true;
  exhaustive.tour_options.improve_options.exhaustive = true;

  SimOptions candidate = exhaustive;
  candidate.tour_options.improve_options.exhaustive = false;

  Simulator sim_exhaustive(net, cycles, exhaustive);
  Simulator sim_candidate(net, cycles, candidate);
  ScriptedPolicy policy_exhaustive(script);
  ScriptedPolicy policy_candidate(script);
  const auto reference = sim_exhaustive.run(policy_exhaustive);
  const auto accelerated = sim_candidate.run(policy_candidate);
  EXPECT_GT(accelerated.service_cost, 0.0);
  EXPECT_LE(accelerated.service_cost, reference.service_cost * 1.01);
}

TEST(Simulator, RoundCostsEqualDensePrimDoubleTreeTours) {
  // The simulator costs each round on the Delaunay-sparse MSF; the same
  // rounds rebuilt from dense Prim's forest must cost the same, bit for
  // bit, for a full dispatch and a proper subset.
  const auto net = test_network(300, 4, 12);
  const auto cycles = fixed_cycles(net, 50.0, 50.0, 12);
  std::vector<std::size_t> all(net.n());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<std::size_t> subset;
  for (std::size_t i = 1; i < all.size(); i += 3) subset.push_back(i);
  const std::vector<charging::Dispatch> script{{5.0, all}, {15.0, subset}};

  SimOptions options;
  options.horizon = 30.0;
  Simulator simulator(net, cycles, options);
  ScriptedPolicy policy(script);
  const auto result = simulator.run(policy);
  ASSERT_EQ(result.num_dispatches, 2u);

  double expected = 0.0;
  for (const auto& dispatch : script) {
    const auto view = simulator.dispatch_view(dispatch.sensors);
    const auto forest = testing::dense_q_rooted_msf(view, net.q());
    double round = 0.0;
    for (const auto& tree : forest.trees)
      round += tsp::tree_to_tour(tree.edges(), tree.root()).length_with(view);
    expected += round;
  }
  EXPECT_EQ(result.service_cost, expected);
}

TEST(Simulator, DispatchViewMatchesTheLazyOracleBitForBit) {
  const auto net = test_network(60, 3, 13);
  const auto cycles = fixed_cycles(net, 50.0, 50.0, 13);
  Simulator simulator(net, cycles, SimOptions{});
  const std::vector<std::size_t> ids{7, 3, 41, 0, 59, 22};
  const auto direct = simulator.dispatch_view(ids);
  const auto cached = simulator.oracle().dispatch_view(ids);
  ASSERT_FALSE(direct.cached());
  ASSERT_TRUE(cached.cached());
  ASSERT_EQ(direct.size(), cached.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct.point(i), cached.point(i));
    for (std::size_t j = 0; j < direct.size(); ++j)
      EXPECT_EQ(direct(i, j), cached(i, j)) << i << "," << j;
  }
  EXPECT_EQ(&simulator.oracle(), &simulator.oracle());  // built once
}

TEST(Simulator, UncapacitatedRunTouchesNoOracleRow) {
  const auto net = test_network(200, 3, 14);
  const auto cycles = fixed_cycles(net, 5.0, 40.0, 14);
  SimOptions options;
  options.horizon = 200.0;
  Simulator simulator(net, cycles, options);
  charging::MinTotalDistancePolicy policy;
  auto& rows = obs::Registry::global().counter("oracle.rows_materialized");
  const auto before = rows.value();
  const auto result = simulator.run(policy);
  EXPECT_GT(result.num_dispatches, 0u);
  EXPECT_EQ(rows.value(), before);
}

TEST(Simulator, PassedDeadlineStopsTheRunBeforeATourBuild) {
  // Five rounds are far fewer events than one clock poll interval: the
  // check before each tour build is what stops this run.
  const auto net = test_network(40, 3, 1);
  const auto cycles = fixed_cycles(net, 1.0, 8.0, 2);
  SimOptions options;
  options.horizon = 5.0;
  options.deadline = std::chrono::steady_clock::now();
  Simulator simulator(net, cycles, options);
  charging::MinTotalDistancePolicy policy;
  EXPECT_THROW(simulator.run(policy), DeadlineError);

  // A deadline that does not pass leaves the run as it is without one.
  SimOptions unbounded;
  unbounded.horizon = 5.0;
  options.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  const auto bounded = Simulator(net, cycles, options).run(policy);
  const auto reference = Simulator(net, cycles, unbounded).run(policy);
  EXPECT_EQ(bounded.service_cost, reference.service_cost);
  EXPECT_EQ(bounded.num_dispatches, reference.num_dispatches);
}

TEST(SimulatorDeath, PastDispatchAborts) {
  const auto net = test_network(2, 1, 10);
  const auto cycles = fixed_cycles(net, 50.0, 50.0, 10);
  SimOptions options;
  options.horizon = 30.0;
  Simulator simulator(net, cycles, options);
  // Second dispatch goes backwards in time.
  std::vector<charging::Dispatch> script{{20.0, {0}}, {10.0, {1}}};
  ScriptedPolicy policy(std::move(script));
  EXPECT_DEATH(simulator.run(policy), "past");
}

TEST(SimulatorDeath, EmptyDispatchAborts) {
  const auto net = test_network(2, 1, 11);
  const auto cycles = fixed_cycles(net, 50.0, 50.0, 11);
  SimOptions options;
  options.horizon = 30.0;
  Simulator simulator(net, cycles, options);
  std::vector<charging::Dispatch> script{{5.0, {}}};
  ScriptedPolicy policy(std::move(script));
  EXPECT_DEATH(simulator.run(policy), "empty");
}

}  // namespace
}  // namespace mwc::sim
