#include "charging/min_total_distance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "../support/fake_view.hpp"
#include "util/rng.hpp"
#include "wsn/cycles.hpp"

namespace mwc::charging {
namespace {

using mwc::testing::FakeView;
using mwc::testing::small_network;

TEST(MinTotalDistancePolicy, FirstDispatchAtTau1) {
  const auto net = small_network(4, 2);
  FakeView view(net, 100.0);
  view.set_all_cycles({2.0, 4.0, 8.0, 8.0});
  view.fill_full();

  MinTotalDistancePolicy policy;
  policy.reset(view);
  const auto d = policy.next_dispatch(view);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(d->time, 2.0);
  EXPECT_EQ(d->sensors, (std::vector<std::size_t>{0}));
}

TEST(MinTotalDistancePolicy, RoundStructure) {
  const auto net = small_network(3, 2);
  FakeView view(net, 100.0);
  view.set_all_cycles({1.0, 2.0, 4.0});
  view.fill_full();

  MinTotalDistancePolicy policy;
  policy.reset(view);

  std::vector<std::vector<std::size_t>> sets;
  for (int round = 0; round < 4; ++round) {
    auto d = policy.next_dispatch(view);
    ASSERT_TRUE(d);
    EXPECT_DOUBLE_EQ(d->time, round + 1.0);
    sets.push_back(d->sensors);
    policy.on_dispatch_executed(view, *d);
  }
  EXPECT_EQ(sets[0], (std::vector<std::size_t>{0}));
  EXPECT_EQ(sets[1], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(sets[2], (std::vector<std::size_t>{0}));
  EXPECT_EQ(sets[3], (std::vector<std::size_t>{0, 1, 2}));
}

TEST(MinTotalDistancePolicy, StopsBeforeHorizon) {
  const auto net = small_network(2, 1);
  FakeView view(net, 10.0);
  view.set_all_cycles({4.0, 4.0});
  view.fill_full();

  MinTotalDistancePolicy policy;
  policy.reset(view);
  // Dispatches at 4, 8; 12 >= T.
  for (double expected : {4.0, 8.0}) {
    auto d = policy.next_dispatch(view);
    ASSERT_TRUE(d);
    EXPECT_DOUBLE_EQ(d->time, expected);
    policy.on_dispatch_executed(view, *d);
  }
  EXPECT_FALSE(policy.next_dispatch(view).has_value());
}

TEST(MinTotalDistancePolicy, NoDispatchAtExactlyT) {
  // Paper: no charging scheduling is performed at time T itself.
  const auto net = small_network(1, 1);
  FakeView view(net, 8.0);
  view.set_all_cycles({4.0});
  view.fill_full();
  MinTotalDistancePolicy policy;
  policy.reset(view);
  auto d = policy.next_dispatch(view);
  ASSERT_TRUE(d);
  EXPECT_DOUBLE_EQ(d->time, 4.0);
  policy.on_dispatch_executed(view, *d);
  EXPECT_FALSE(policy.next_dispatch(view).has_value());  // t=8 == T skipped
}

TEST(MinTotalDistancePolicy, MemoisedRoundsEqualRoundSensorSet) {
  // next_dispatch indexes the K+1 sets built at reset(); every round j
  // must still be the paper's C_j, past a full period 2^K and after a
  // second reset() with other cycles (a new K and new classes).
  const auto net = small_network(12, 2);
  FakeView view(net, 1e9);
  MinTotalDistancePolicy policy;
  const std::vector<std::vector<double>> cycle_sets = {
      {1.0, 2.0, 4.0, 8.0, 1.5, 3.0, 16.0, 9.0, 2.5, 1.0, 5.0, 31.0},
      {3.0, 3.0, 7.0, 3.5, 12.0, 6.5, 3.1, 25.0, 4.0, 3.0, 13.0, 3.2},
  };
  for (const auto& cycles : cycle_sets) {
    view.set_all_cycles(cycles);
    view.fill_full();
    policy.reset(view);
    const CyclePartition expected = partition_by_cycles(cycles);
    ASSERT_EQ(policy.partition().K, expected.K);
    const std::size_t last = (std::size_t{1} << (expected.K + 1)) + 3;
    for (std::size_t j = 1; j <= last; ++j) {
      const auto d = policy.next_dispatch(view);
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(d->time, static_cast<double>(j) * expected.tau1);
      EXPECT_EQ(d->sensors, round_sensor_set(expected, j)) << "round " << j;
      policy.on_dispatch_executed(view, *d);
    }
    const auto planned = policy.planned_dispatch_sets(view);
    ASSERT_EQ(planned.size(), expected.K + 1);
    for (std::size_t k = 0; k <= expected.K; ++k)
      EXPECT_EQ(planned[k], round_sensor_set(expected, std::size_t{1} << k));
  }
}

TEST(BuildSchedule, DispatchTimesAndCosts) {
  const auto net = small_network(6, 2, 3);
  std::vector<double> cycles{1.0, 1.5, 2.0, 3.0, 4.0, 7.9};
  const auto schedule =
      build_min_total_distance_schedule(net, cycles, 16.0);

  EXPECT_EQ(schedule.partition.K, 2u);
  ASSERT_EQ(schedule.tours_by_depth.size(), 3u);
  // Rounds at times 1..15 (15 dispatches; t=16 == T excluded).
  ASSERT_EQ(schedule.dispatches.size(), 15u);
  for (std::size_t j = 0; j < schedule.dispatches.size(); ++j)
    EXPECT_DOUBLE_EQ(schedule.dispatches[j].time, double(j + 1));

  // Total cost equals the sum of per-round class costs.
  double manual = 0.0;
  for (std::size_t j = 1; j <= 15; ++j) {
    const auto depth = round_depth(schedule.partition, j);
    manual += schedule.tours_by_depth[depth].total_length;
  }
  EXPECT_NEAR(schedule.total_cost, manual, 1e-9);
}

TEST(BuildSchedule, DeeperRoundsCostMore) {
  const auto net = small_network(30, 3, 4);
  mwc::Rng rng(5);
  std::vector<double> cycles;
  for (int i = 0; i < 30; ++i) cycles.push_back(rng.uniform(1.0, 30.0));
  const auto schedule = build_min_total_distance_schedule(net, cycles, 64.0);
  // tours_by_depth[k] covers a superset of tours_by_depth[k-1]'s sensors;
  // MSF-based cost is monotone in the covered set.
  for (std::size_t k = 1; k < schedule.tours_by_depth.size(); ++k) {
    EXPECT_GE(schedule.tours_by_depth[k].total_length,
              schedule.tours_by_depth[k - 1].total_length - 1e-9);
  }
}

TEST(BuildSchedule, GapsNeverExceedMaxCycle) {
  // Structural feasibility: for every sensor, consecutive charges in the
  // dispatch stream are at most τ_i apart, and the first/last gaps fit.
  const auto net = small_network(25, 2, 6);
  mwc::Rng rng(7);
  std::vector<double> cycles;
  for (int i = 0; i < 25; ++i) cycles.push_back(rng.uniform(1.0, 20.0));
  const double T = 100.0;
  const auto schedule = build_min_total_distance_schedule(net, cycles, T);

  std::vector<double> last_charge(cycles.size(), 0.0);
  for (const auto& d : schedule.dispatches) {
    for (std::size_t i : d.sensors) {
      EXPECT_LE(d.time - last_charge[i], cycles[i] + 1e-9);
      last_charge[i] = d.time;
    }
  }
  for (std::size_t i = 0; i < cycles.size(); ++i)
    EXPECT_LE(T - last_charge[i], cycles[i] + 1e-9);
}

TEST(BuildSchedule, EmptyNetwork) {
  wsn::Network net;
  const auto schedule = build_min_total_distance_schedule(net, {}, 10.0);
  EXPECT_TRUE(schedule.dispatches.empty());
  EXPECT_EQ(schedule.total_cost, 0.0);
}

TEST(BuildSchedule, ImproveOptionNeverCostsMore) {
  const auto net = small_network(40, 3, 8);
  mwc::Rng rng(9);
  std::vector<double> cycles;
  for (int i = 0; i < 40; ++i) cycles.push_back(rng.uniform(1.0, 16.0));
  const auto raw = build_min_total_distance_schedule(net, cycles, 32.0);
  tsp::QRootedOptions with_improve;
  with_improve.improve = true;
  const auto polished =
      build_min_total_distance_schedule(net, cycles, 32.0, with_improve);
  EXPECT_LE(polished.total_cost, raw.total_cost + 1e-9);
}

}  // namespace
}  // namespace mwc::charging
