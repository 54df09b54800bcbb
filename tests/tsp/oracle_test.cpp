// Golden-equivalence suite for the shared distance oracle: every tsp
// routine must produce *bit-identical* output whether distances come from
// the oracle's cache or from direct geometry. The simulator's costing
// correctness rests on this equivalence.
#include "tsp/oracle.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "geom/distance.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "tsp/construct.hpp"
#include "tsp/improve.hpp"
#include "tsp/qrooted.hpp"
#include "tsp/split.hpp"
#include "util/rng.hpp"

namespace mwc::tsp {
namespace {

QRootedInstance random_instance(std::size_t n, std::size_t q,
                                std::uint64_t seed) {
  Rng rng(seed);
  QRootedInstance instance;
  instance.depots.reserve(q);
  for (std::size_t l = 0; l < q; ++l)
    instance.depots.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  instance.sensors.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    instance.sensors.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  return instance;
}

DistanceOracle oracle_for(const QRootedInstance& instance) {
  return DistanceOracle(instance.depots, instance.sensors);
}

void expect_same_tours(const QRootedTours& a, const QRootedTours& b) {
  ASSERT_EQ(a.tours.size(), b.tours.size());
  for (std::size_t l = 0; l < a.tours.size(); ++l)
    EXPECT_EQ(a.tours[l].order(), b.tours[l].order()) << "tour " << l;
  EXPECT_EQ(a.total_length, b.total_length);  // bit-exact, not approximate
}

TEST(DistanceView, DirectMatchesGeometry) {
  const auto instance = random_instance(20, 3, 1);
  const auto view = instance.distances();
  ASSERT_EQ(view.size(), instance.total_nodes());
  EXPECT_FALSE(view.cached());
  for (std::size_t i = 0; i < view.size(); ++i)
    for (std::size_t j = 0; j < view.size(); ++j)
      EXPECT_EQ(view(i, j),
                geom::distance(instance.point(i), instance.point(j)));
}

TEST(DistanceOracle, MatchesDirectGeometryBitExact) {
  const auto instance = random_instance(50, 4, 2);
  const auto oracle = oracle_for(instance);
  const auto cached = oracle.view();
  const auto direct = instance.distances();
  ASSERT_EQ(cached.size(), direct.size());
  EXPECT_TRUE(cached.cached());
  for (std::size_t i = 0; i < cached.size(); ++i)
    for (std::size_t j = 0; j < cached.size(); ++j)
      EXPECT_EQ(cached(i, j), direct(i, j));
}

TEST(DistanceOracle, SubviewAndDispatchViewRelabel) {
  const auto instance = random_instance(30, 2, 3);
  const auto oracle = oracle_for(instance);
  const std::size_t q = instance.q();

  // dispatch_view({ids}) node k >= q must be sensor ids[k - q].
  const std::vector<std::size_t> ids = {4, 9, 17, 29};
  const auto view = oracle.dispatch_view(ids);
  ASSERT_EQ(view.size(), q + ids.size());
  for (std::size_t a = 0; a < view.size(); ++a) {
    const geom::Point& pa = a < q ? instance.depots[a]
                                  : instance.sensors[ids[a - q]];
    for (std::size_t b = 0; b < view.size(); ++b) {
      const geom::Point& pb = b < q ? instance.depots[b]
                                    : instance.sensors[ids[b - q]];
      EXPECT_EQ(view(a, b), geom::distance(pa, pb));
    }
  }

  // sub() composes maps: taking every other node of the dispatch view
  // still reads the same backing entries.
  std::vector<std::size_t> locals;
  for (std::size_t k = 0; k < view.size(); k += 2) locals.push_back(k);
  const auto sub = view.sub(locals);
  ASSERT_EQ(sub.size(), locals.size());
  for (std::size_t a = 0; a < sub.size(); ++a)
    for (std::size_t b = 0; b < sub.size(); ++b)
      EXPECT_EQ(sub(a, b), view(locals[a], locals[b]));
}

TEST(LazyDistanceMatrix, MaterializesRowsOnDemand) {
  const auto instance = random_instance(16, 1, 4);
  const auto oracle = oracle_for(instance);
  EXPECT_EQ(oracle.rows_materialized(), 0u);
  (void)oracle(3, 5);
  EXPECT_EQ(oracle.rows_materialized(), 1u);
  (void)oracle(3, 7);  // same row: no new materialization
  EXPECT_EQ(oracle.rows_materialized(), 1u);
  oracle.materialize_all();
  EXPECT_EQ(oracle.rows_materialized(), oracle.size());
}

TEST(LazyDistanceMatrix, ConcurrentFirstTouchesAgree) {
  const auto instance = random_instance(64, 2, 5);
  const auto oracle = oracle_for(instance);
  const auto direct = instance.distances();
  std::vector<std::thread> threads;
  std::vector<int> ok(8, 0);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      int good = 1;
      for (std::size_t i = 0; i < oracle.size(); ++i)
        for (std::size_t j = 0; j < oracle.size(); ++j)
          if (oracle(i, j) != direct(i, j)) good = 0;
      ok[t] = good;
    });
  }
  for (auto& th : threads) th.join();
  for (int good : ok) EXPECT_EQ(good, 1);
}

// Probe telemetry: the MSF and the polishers count each probe as a hit
// when an oracle serves it and as a miss when direct geometry does.
TEST(DistanceOracle, ProbesCountAsHitsOnOracleViewsAndMissesOnDirect) {
  if (MWC_OBS_ENABLED == 0) GTEST_SKIP() << "obs compiled out";
  const auto instance = random_instance(60, 3, 4);
  const auto oracle = oracle_for(instance);
  auto& hits = obs::Registry::global().counter("oracle.probe_hits");
  auto& misses = obs::Registry::global().counter("oracle.probe_misses");

  auto hits_before = hits.value();
  auto misses_before = misses.value();
  (void)q_rooted_msf(oracle.view(), instance.q());
  EXPECT_GT(hits.value(), hits_before);
  EXPECT_EQ(misses.value(), misses_before);

  hits_before = hits.value();
  (void)q_rooted_msf(instance);
  EXPECT_GT(misses.value(), misses_before);
  EXPECT_EQ(hits.value(), hits_before);

  const auto points = instance.points().materialize();
  Tour tour = nearest_neighbor_tour(points);
  misses_before = misses.value();
  (void)improve_tour(tour, oracle.view());
  EXPECT_GT(hits.value(), hits_before);
  EXPECT_EQ(misses.value(), misses_before);
}

// The tentpole guarantee: the oracle-backed pipeline produces the exact
// tours of the direct-geometry pipeline on randomized instances across
// the full size/depot grid.
using GoldenParam = std::tuple<std::size_t, std::size_t>;  // (n, q)

class GoldenEquivalence : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(GoldenEquivalence, MsfIdentical) {
  const auto [n, q] = GetParam();
  const auto instance = random_instance(n, q, 100 + n + q);
  const auto oracle = oracle_for(instance);

  const auto direct = q_rooted_msf(instance);
  const auto cached = q_rooted_msf(oracle.view(), q);
  ASSERT_EQ(direct.trees.size(), cached.trees.size());
  EXPECT_EQ(direct.total_weight, cached.total_weight);
  for (std::size_t l = 0; l < direct.trees.size(); ++l) {
    ASSERT_EQ(direct.trees[l].edges().size(), cached.trees[l].edges().size());
    for (std::size_t e = 0; e < direct.trees[l].edges().size(); ++e) {
      EXPECT_EQ(direct.trees[l].edges()[e].u, cached.trees[l].edges()[e].u);
      EXPECT_EQ(direct.trees[l].edges()[e].v, cached.trees[l].edges()[e].v);
      EXPECT_EQ(direct.trees[l].edges()[e].w, cached.trees[l].edges()[e].w);
    }
  }
}

TEST_P(GoldenEquivalence, DoubleTreeToursIdentical) {
  const auto [n, q] = GetParam();
  const auto instance = random_instance(n, q, 200 + n + q);
  const auto oracle = oracle_for(instance);
  expect_same_tours(q_rooted_tsp(instance),
                    q_rooted_tsp(oracle.view(), q));
}

TEST_P(GoldenEquivalence, ImprovedToursIdentical) {
  const auto [n, q] = GetParam();
  if (n > 100) GTEST_SKIP() << "2-opt at n=800 is slow; covered at n<=100";
  const auto instance = random_instance(n, q, 300 + n + q);
  const auto oracle = oracle_for(instance);
  QRootedOptions options;
  options.improve = true;
  expect_same_tours(q_rooted_tsp(instance, options),
                    q_rooted_tsp(oracle.view(), q, options));
}

TEST_P(GoldenEquivalence, ChristofidesToursIdentical) {
  const auto [n, q] = GetParam();
  const auto instance = random_instance(n, q, 400 + n + q);
  const auto oracle = oracle_for(instance);
  QRootedOptions options;
  options.construction = TourConstruction::kChristofides;
  expect_same_tours(q_rooted_tsp(instance, options),
                    q_rooted_tsp(oracle.view(), q, options));
}

TEST_P(GoldenEquivalence, SplitsIdentical) {
  const auto [n, q] = GetParam();
  const auto instance = random_instance(n, q, 500 + n + q);
  const auto oracle = oracle_for(instance);
  const auto points = instance.points().materialize();
  const auto cached = oracle.view();
  const auto tours = q_rooted_tsp(instance);
  for (std::size_t l = 0; l < tours.tours.size(); ++l) {
    const auto& tour = tours.tours[l];
    if (tour.size() < 2) continue;
    const auto direct_split = split_tour_minmax(points, tour, l, 3);
    const auto cached_split = split_tour_minmax(cached, tour, l, 3);
    ASSERT_EQ(direct_split.tours.size(), cached_split.tours.size());
    for (std::size_t t = 0; t < direct_split.tours.size(); ++t)
      EXPECT_EQ(direct_split.tours[t].order(), cached_split.tours[t].order());
    EXPECT_EQ(direct_split.total_length, cached_split.total_length);
    EXPECT_EQ(direct_split.max_length, cached_split.max_length);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeGrid, GoldenEquivalence,
    ::testing::Combine(::testing::Values(std::size_t{10}, std::size_t{100},
                                         std::size_t{800}),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{10})));

TEST(CombinedPointsView, MatchesMaterializedCopy) {
  const auto instance = random_instance(12, 3, 6);
  const auto view = instance.points();
  const auto copy = instance.points().materialize();
  ASSERT_EQ(view.size(), copy.size());
  std::size_t i = 0;
  for (const auto& p : view) {  // iterator path
    EXPECT_EQ(p.x, copy[i].x);
    EXPECT_EQ(p.y, copy[i].y);
    ++i;
  }
  EXPECT_EQ(i, copy.size());
  EXPECT_EQ(view.materialize().size(), copy.size());
}

}  // namespace
}  // namespace mwc::tsp
