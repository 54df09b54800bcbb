// Microbenchmarks of the scheduling layer: Algorithm 3 schedule builds,
// the variable-cycle heuristic's plan recompute, one full simulated
// period, and the exact DP solver — the costs a user pays per experiment.
#include <benchmark/benchmark.h>

#include "charging/exact_schedule.hpp"
#include "charging/greedy.hpp"
#include "charging/min_total_distance.hpp"
#include "charging/var_heuristic.hpp"
#include "exp/runner.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "wsn/cycles.hpp"
#include "wsn/deployment.hpp"

namespace {

using namespace mwc;

struct World {
  wsn::Network network;
  wsn::CycleModel cycles;
};

World make_world(std::size_t n, double slot_sigma = 0.0) {
  wsn::DeploymentConfig deployment;
  deployment.n = n;
  deployment.q = 5;
  Rng rng(1);
  auto network = wsn::deploy_random(deployment, rng);
  wsn::CycleModelConfig config;
  config.sigma = slot_sigma;
  wsn::CycleModel cycles(network, config, 2);
  return World{std::move(network), std::move(cycles)};
}

void BM_BuildSchedule(benchmark::State& state) {
  const auto world = make_world(static_cast<std::size_t>(state.range(0)));
  const auto taus = world.cycles.fixed_cycles();
  for (auto _ : state) {
    auto schedule = charging::build_min_total_distance_schedule(
        world.network, taus, 1000.0);
    benchmark::DoNotOptimize(schedule.total_cost);
  }
}
BENCHMARK(BM_BuildSchedule)->Range(64, 512);

void BM_SimulateFixedPeriod(benchmark::State& state) {
  const auto world = make_world(static_cast<std::size_t>(state.range(0)));
  sim::SimOptions options;
  options.horizon = 1000.0;
  sim::Simulator simulator(world.network, world.cycles, options);
  for (auto _ : state) {
    charging::MinTotalDistancePolicy policy;
    benchmark::DoNotOptimize(simulator.run(policy).service_cost);
  }
}
BENCHMARK(BM_SimulateFixedPeriod)->Range(64, 512)->Arg(2000)->Arg(10000);

void BM_SimulateVariablePeriod(benchmark::State& state) {
  const auto world =
      make_world(static_cast<std::size_t>(state.range(0)), 2.0);
  sim::SimOptions options;
  options.horizon = 1000.0;
  options.slot_length = 10.0;
  sim::Simulator simulator(world.network, world.cycles, options);
  for (auto _ : state) {
    charging::MinTotalDistanceVarPolicy policy;
    benchmark::DoNotOptimize(simulator.run(policy).service_cost);
  }
}
BENCHMARK(BM_SimulateVariablePeriod)->Range(64, 256);

void BM_GreedySimulatedPeriod(benchmark::State& state) {
  const auto world = make_world(static_cast<std::size_t>(state.range(0)));
  sim::SimOptions options;
  options.horizon = 1000.0;
  sim::Simulator simulator(world.network, world.cycles, options);
  for (auto _ : state) {
    charging::GreedyPolicy policy(charging::GreedyOptions{.threshold = 1.0});
    benchmark::DoNotOptimize(simulator.run(policy).service_cost);
  }
}
BENCHMARK(BM_GreedySimulatedPeriod)->Range(64, 256);

void BM_ExactDpSolver(benchmark::State& state) {
  wsn::DeploymentConfig deployment;
  deployment.n = static_cast<std::size_t>(state.range(0));
  deployment.q = 2;
  deployment.field_side = 200.0;
  Rng rng(3);
  const auto network = wsn::deploy_random(deployment, rng);
  std::vector<double> cycles;
  for (std::size_t i = 0; i < network.n(); ++i)
    cycles.push_back(static_cast<double>(1 + (i % 4)));
  for (auto _ : state) {
    auto result = charging::solve_exact_schedule(network, cycles, 12.0);
    benchmark::DoNotOptimize(result.cost);
  }
}
BENCHMARK(BM_ExactDpSolver)->DenseRange(3, 6);

}  // namespace
