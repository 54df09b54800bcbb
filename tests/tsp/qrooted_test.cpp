// Tests for Algorithms 1 and 2 — including the paper's Lemma 1 (MSF
// optimality) and Theorem 1 (2-approximation) verified against brute force,
// on random and on degenerate (co-circular, collinear, duplicate,
// coincident) instances, plus the Delaunay-sparse span against the dense
// Prim oracle.
#include "tsp/qrooted.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "../support/dense_msf.hpp"
#include "../support/point_sets.hpp"
#include "tsp/exact.hpp"
#include "tsp/improve.hpp"
#include "tsp/oracle.hpp"
#include "util/rng.hpp"

namespace mwc::tsp {
namespace {

QRootedInstance random_instance(std::size_t q, std::size_t m,
                                std::uint64_t seed, double side = 100.0) {
  mwc::Rng rng(seed);
  QRootedInstance inst;
  for (std::size_t l = 0; l < q; ++l)
    inst.depots.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  for (std::size_t k = 0; k < m; ++k)
    inst.sensors.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  return inst;
}

/// An instance cut from one degenerate family: the first q points are
/// the depots, so depots share the family's lattice, line or duplicates.
QRootedInstance degenerate_instance(std::size_t family, std::size_t q,
                                    std::size_t m, std::uint64_t seed) {
  const auto sets = mwc::testing::degenerate_point_sets(q + m, seed);
  const auto& pts = sets[family % sets.size()].points;
  QRootedInstance inst;
  inst.depots.assign(pts.begin(), pts.begin() + static_cast<long>(q));
  inst.sensors.assign(pts.begin() + static_cast<long>(q), pts.end());
  return inst;
}

TEST(QRootedInstance, CombinedIndexing) {
  QRootedInstance inst;
  inst.depots = {{0, 0}, {1, 1}};
  inst.sensors = {{2, 2}};
  EXPECT_EQ(inst.q(), 2u);
  EXPECT_EQ(inst.m(), 1u);
  EXPECT_EQ(inst.total_nodes(), 3u);
  EXPECT_EQ(inst.point(0), geom::Point(0, 0));
  EXPECT_EQ(inst.point(2), geom::Point(2, 2));
  EXPECT_EQ(inst.points().size(), 3u);
}

TEST(QRootedMsf, NoSensors) {
  auto inst = random_instance(3, 0, 1);
  const auto forest = q_rooted_msf(inst);
  EXPECT_EQ(forest.trees.size(), 3u);
  EXPECT_EQ(forest.total_weight, 0.0);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_EQ(forest.trees[l].root(), l);
    EXPECT_EQ(forest.trees[l].num_nodes(), 1u);
  }
}

TEST(QRootedMsf, SingleDepotIsPlainMst) {
  auto inst = random_instance(1, 20, 2);
  const auto forest = q_rooted_msf(inst);
  ASSERT_EQ(forest.trees.size(), 1u);
  EXPECT_EQ(forest.trees[0].num_nodes(), 21u);
  EXPECT_TRUE(forest.trees[0].valid());
}

TEST(QRootedMsf, SensorGoesToNearestDepotWhenIsolated) {
  QRootedInstance inst;
  inst.depots = {{0, 0}, {100, 0}};
  inst.sensors = {{90, 0}};
  const auto forest = q_rooted_msf(inst);
  EXPECT_EQ(forest.trees[0].num_nodes(), 1u);   // depot 0 alone
  EXPECT_EQ(forest.trees[1].num_nodes(), 2u);   // depot 1 + sensor
  EXPECT_NEAR(forest.total_weight, 10.0, 1e-12);
}

TEST(QRootedMsf, TreesPartitionSensors) {
  auto inst = random_instance(4, 30, 3);
  const auto forest = q_rooted_msf(inst);
  std::set<std::size_t> seen;
  for (std::size_t l = 0; l < forest.trees.size(); ++l) {
    EXPECT_TRUE(forest.trees[l].valid());
    EXPECT_EQ(forest.trees[l].root(), l);
    for (std::size_t v : forest.trees[l].nodes()) {
      if (v >= inst.q()) {
        EXPECT_TRUE(seen.insert(v).second);
      }
    }
  }
  EXPECT_EQ(seen.size(), inst.m());
}

// Lemma 1: the contraction algorithm is exact.
class Lemma1Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma1Property, MsfMatchesBruteForce) {
  const auto seed = GetParam();
  mwc::Rng meta(seed);
  const auto q = static_cast<std::size_t>(meta.uniform_int(2, 3));
  const auto m = static_cast<std::size_t>(meta.uniform_int(1, 7));
  const auto inst = random_instance(q, m, seed ^ 0xAB);
  const double algo = q_rooted_msf(inst).total_weight;
  const double brute = brute_force_q_rooted_msf(inst);
  EXPECT_NEAR(algo, brute, 1e-9) << "q=" << q << " m=" << m;
}

// Collinear sensors in reverse index order hang off depot 0 as one chain
// whose every parent has a larger index than its child: the deepest MST
// the un-contract step can meet.
TEST_P(Lemma1Property, DeepChainMatchesBruteForce) {
  const auto seed = GetParam();
  mwc::Rng meta(seed ^ 0xDEE9);
  const auto q = static_cast<std::size_t>(meta.uniform_int(2, 3));
  const auto m = static_cast<std::size_t>(meta.uniform_int(2, 7));
  auto inst = random_instance(q, 0, seed ^ 0xEF, /*side=*/100.0);
  inst.depots[0] = {0.0, 0.0};
  for (std::size_t k = 0; k < m; ++k)
    inst.sensors.push_back({10.0 * static_cast<double>(m - k), 0.0});
  const auto forest = q_rooted_msf(inst);
  EXPECT_NEAR(forest.total_weight, brute_force_q_rooted_msf(inst), 1e-9)
      << "q=" << q << " m=" << m;
  std::size_t spanned = 0;
  for (const auto& tree : forest.trees) {
    EXPECT_TRUE(tree.valid());
    spanned += tree.num_nodes() - 1;
  }
  EXPECT_EQ(spanned, m);
}

TEST_P(Lemma1Property, DegenerateInstancesMatchBruteForce) {
  const auto seed = GetParam();
  mwc::Rng meta(seed ^ 0xD6);
  const auto q = static_cast<std::size_t>(meta.uniform_int(1, 3));
  const auto m = static_cast<std::size_t>(meta.uniform_int(1, 7));
  const auto inst = degenerate_instance(seed, q, m, seed ^ 0x5A);
  EXPECT_NEAR(q_rooted_msf(inst).total_weight,
              brute_force_q_rooted_msf(inst), 1e-9)
      << "family " << seed % 5 << " q=" << q << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Property,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(QRootedTsp, NoSensorsMeansEveryoneStaysHome) {
  auto inst = random_instance(3, 0, 4);
  const auto tours = q_rooted_tsp(inst);
  EXPECT_EQ(tours.total_length, 0.0);
  for (std::size_t l = 0; l < 3; ++l)
    EXPECT_EQ(tours.tours[l].order(), std::vector<std::size_t>{l});
}

TEST(QRootedTsp, CoversAllSensors) {
  auto inst = random_instance(5, 40, 5);
  const auto tours = q_rooted_tsp(inst);
  EXPECT_TRUE(covers_all_sensors(inst, tours));
}

TEST(QRootedTsp, WithinTwiceMsfWeight) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto inst = random_instance(4, 50, seed);
    const double forest = q_rooted_msf(inst).total_weight;
    const auto tours = q_rooted_tsp(inst);
    EXPECT_LE(tours.total_length, 2.0 * forest + 1e-9);
  }
}

// Theorem 1: within twice the optimal q-rooted tour cost.
class Theorem1Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem1Property, WithinTwiceOptimal) {
  const auto seed = GetParam();
  mwc::Rng meta(seed ^ 0x77);
  const auto q = static_cast<std::size_t>(meta.uniform_int(2, 3));
  const auto m = static_cast<std::size_t>(meta.uniform_int(2, 7));
  const auto inst = random_instance(q, m, seed ^ 0xCD);
  const auto approx = q_rooted_tsp(inst);
  const double optimal = brute_force_q_rooted_tsp(inst);
  EXPECT_LE(approx.total_length, 2.0 * optimal + 1e-9)
      << "q=" << q << " m=" << m;
  EXPECT_GE(approx.total_length, optimal - 1e-9);
  EXPECT_TRUE(covers_all_sensors(inst, approx));
}

TEST_P(Theorem1Property, DegenerateInstancesWithinTwiceOptimal) {
  const auto seed = GetParam();
  mwc::Rng meta(seed ^ 0x7D);
  const auto q = static_cast<std::size_t>(meta.uniform_int(1, 3));
  const auto m = static_cast<std::size_t>(meta.uniform_int(2, 7));
  const auto inst = degenerate_instance(seed, q, m, seed ^ 0xCE);
  const auto approx = q_rooted_tsp(inst);
  const double optimal = brute_force_q_rooted_tsp(inst);
  EXPECT_LE(approx.total_length, 2.0 * optimal + 1e-9)
      << "family " << seed % 5 << " q=" << q << " m=" << m;
  EXPECT_GE(approx.total_length, optimal - 1e-9);
  EXPECT_TRUE(covers_all_sensors(inst, approx));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Property,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(QRootedTsp, ImproveNeverHurts) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = random_instance(3, 60, seed);
    QRootedOptions with_improve;
    with_improve.improve = true;
    const auto raw = q_rooted_tsp(inst);
    const auto polished = q_rooted_tsp(inst, with_improve);
    EXPECT_LE(polished.total_length, raw.total_length + 1e-9);
    EXPECT_TRUE(covers_all_sensors(inst, polished));
  }
}

TEST(QRootedTsp, CandidatePolishBuildsTheGraphACallerWould) {
  // 300 sensors over 4 depots: every tour is past the exhaustive size
  // cut-off, so the candidate graph really prunes.
  const auto inst = random_instance(4, 300, 7, 1000.0);
  const DistanceOracle oracle(inst.depots, inst.sensors);
  std::vector<std::size_t> ids;
  for (std::size_t k = 0; k < inst.m(); k += 3)
    ids.push_back((k * 7) % inst.m());  // a permuted subset
  const std::size_t q = inst.q();
  for (const DistanceView& view :
       {inst.distances(), oracle.dispatch_view(ids)}) {
    SCOPED_TRACE(view.cached() ? "oracle view" : "direct view");
    QRootedOptions options;
    options.improve = true;
    ASSERT_TRUE(candidate_polish(options));
    const auto built = q_rooted_tsp(view, q, options);

    std::vector<geom::Point> points;
    for (std::size_t i = 0; i < view.size(); ++i)
      points.push_back(view.point(i));
    const auto graph =
        CandidateGraph::build(points, options.candidate_options);
    QRootedOptions supplied = options;
    supplied.candidates = &graph;
    const auto given = q_rooted_tsp(view, q, supplied);

    EXPECT_EQ(built.total_length, given.total_length);
    ASSERT_EQ(built.tours.size(), given.tours.size());
    for (std::size_t t = 0; t < built.tours.size(); ++t)
      EXPECT_EQ(built.tours[t].order(), given.tours[t].order()) << t;
    EXPECT_EQ(built.candidates.size(), view.size());
    EXPECT_TRUE(given.candidates.empty());  // the caller's graph was used

    // Forced exhaustive: no graph is built, and each tour gets the full
    // sweep (the same polish as improve_tour's exhaustive mode by hand).
    QRootedOptions exhaustive = options;
    exhaustive.improve_options.exhaustive = true;
    ASSERT_FALSE(candidate_polish(exhaustive));
    const auto swept = q_rooted_tsp(view, q, exhaustive);
    EXPECT_TRUE(swept.candidates.empty());
    auto by_hand = q_rooted_tsp(view, q);
    double total = 0.0;
    for (auto& tour : by_hand.tours) {
      if (tour.size() >= 4)
        improve_tour(tour, view, exhaustive.improve_options);
      total += tour.length_with(view);
    }
    EXPECT_NEAR(swept.total_length, total, 1e-9 * total);
  }
}

TEST(QRootedTsp, ChristofidesConstructionCoversAndUsuallyWins) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = random_instance(3, 60, seed);
    const auto double_tree = q_rooted_tsp(inst);
    QRootedOptions options;
    options.construction = TourConstruction::kChristofides;
    const auto christofides = q_rooted_tsp(inst, options);
    EXPECT_TRUE(covers_all_sensors(inst, christofides));
    EXPECT_LE(christofides.total_length, double_tree.total_length * 1.05)
        << "seed " << seed;
  }
}

TEST(QRootedTsp, CoincidentDepotAndSensor) {
  QRootedInstance inst;
  inst.depots = {{5, 5}};
  inst.sensors = {{5, 5}, {6, 5}};
  const auto tours = q_rooted_tsp(inst);
  EXPECT_TRUE(covers_all_sensors(inst, tours));
  EXPECT_NEAR(tours.total_length, 2.0, 1e-12);
}

// The Delaunay-sparse span against the dense Prim oracle. General
// position is pinned edge for edge in candidates_test; here ties abound,
// so forests may pick different equal-weight edges but weigh the same.
class SparseMsfOnDegenerateSets
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(SparseMsfOnDegenerateSets, WeightEqualsDensePrim) {
  const auto [m, q] = GetParam();
  for (std::size_t family = 0; family < 5; ++family) {
    const auto inst = degenerate_instance(family, q, m, 40 + m + q);
    const auto forest = q_rooted_msf(inst);
    const auto dense = mwc::testing::dense_q_rooted_msf(inst.distances(), q);
    EXPECT_NEAR(forest.total_weight, dense.total_weight,
                1e-9 * (1.0 + dense.total_weight))
        << "family " << family;
    std::set<std::size_t> seen;
    for (std::size_t l = 0; l < q; ++l) {
      EXPECT_TRUE(forest.trees[l].valid());
      EXPECT_EQ(forest.trees[l].root(), l);
      for (const std::size_t v : forest.trees[l].nodes()) {
        if (v >= q) {
          EXPECT_TRUE(seen.insert(v).second) << "family " << family;
        }
      }
    }
    EXPECT_EQ(seen.size(), m) << "family " << family;

    // q_rooted_msf_assign runs the same span with arbitrary roots.
    const auto root_dist = [&](std::size_t r, std::size_t k) {
      return geom::distance(inst.depots[r], inst.sensors[k]);
    };
    EXPECT_NEAR(q_rooted_msf_assign(q, root_dist, inst.sensors).total_weight,
                dense.total_weight, 1e-9 * (1.0 + dense.total_weight))
        << "family " << family;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SparseMsfOnDegenerateSets,
    ::testing::Combine(::testing::Values(std::size_t{10}, std::size_t{100},
                                         std::size_t{800}),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{10})));

// Algorithm 3's nested round sets V_0 ⊆ V_0 ∪ V_1 ⊆ … ⊆ V, each spanned
// over a dispatch view of the whole network as the simulator costs them
// (sizes in cold's proportions). Uniform sets match the dense oracle
// edge for edge; the degenerate families, where ties abound, match its
// weight (Lemma 1). Every level's tours cover exactly its sensors.
TEST(QRootedMsf, NestedRoundSetsMatchDenseOracle) {
  constexpr std::size_t kQ = 5;
  constexpr std::size_t kM = 600;
  auto families = mwc::testing::degenerate_point_sets(kQ + kM, 61);
  families.insert(families.begin(),
                  {"uniform", mwc::testing::uniform_points(kQ + kM, 61)});
  for (const auto& family : families) {
    QRootedInstance network;
    network.depots.assign(family.points.begin(),
                          family.points.begin() + kQ);
    network.sensors.assign(family.points.begin() + kQ, family.points.end());
    std::vector<std::size_t> arrival(kM);
    for (std::size_t k = 0; k < kM; ++k) arrival[k] = k;
    mwc::Rng rng(62);
    mwc::shuffle(arrival.begin(), arrival.end(), rng);

    for (const std::size_t size : {2, 9, 38, 168, 483, 600}) {
      std::vector<std::size_t> set(arrival.begin(),
                                   arrival.begin() + static_cast<long>(size));
      std::sort(set.begin(), set.end());
      const auto view = network.distances().dispatch(kQ, set);
      const auto forest = q_rooted_msf(view, kQ);
      const auto dense = mwc::testing::dense_q_rooted_msf(view, kQ);
      if (family.name == "uniform") {
        EXPECT_EQ(mwc::testing::forest_diff(forest, dense), "")
            << "level of " << size;
      } else {
        EXPECT_NEAR(forest.total_weight, dense.total_weight,
                    1e-9 * (1.0 + dense.total_weight))
            << family.name << ", level of " << size;
      }

      QRootedInstance level;
      level.depots = network.depots;
      for (const std::size_t id : set)
        level.sensors.push_back(network.sensors[id]);
      EXPECT_TRUE(covers_all_sensors(level, q_rooted_tsp(view, kQ)))
          << family.name << ", level of " << size;
    }
  }
}

TEST(QRootedMsfAssign, EachSensorAssignedOnce) {
  const auto inst = random_instance(3, 25, 6);
  const auto root_dist = [&](std::size_t r, std::size_t s) {
    return geom::distance(inst.depots[r], inst.sensors[s]);
  };
  const auto assignment =
      q_rooted_msf_assign(inst.q(), root_dist, inst.sensors);
  std::set<std::size_t> seen;
  for (const auto& group : assignment.groups)
    for (std::size_t s : group) EXPECT_TRUE(seen.insert(s).second);
  EXPECT_EQ(seen.size(), inst.m());
}

TEST(QRootedMsfAssign, MatchesDepotBasedMsfWeight) {
  // When roots are exactly the depots, the generalized assignment must
  // reproduce the q-rooted MSF weight.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = random_instance(3, 20, seed);
    const auto root_dist = [&](std::size_t r, std::size_t s) {
      return geom::distance(inst.depots[r], inst.sensors[s]);
    };
    const auto assignment =
        q_rooted_msf_assign(inst.q(), root_dist, inst.sensors);
    const auto forest = q_rooted_msf(inst);
    EXPECT_NEAR(assignment.total_weight, forest.total_weight, 1e-9);
  }
}

TEST(QRootedMsfAssign, EmptySensors) {
  const auto assignment = q_rooted_msf_assign(
      2, [](std::size_t, std::size_t) { return 1.0; }, {});
  EXPECT_EQ(assignment.groups.size(), 2u);
  EXPECT_EQ(assignment.total_weight, 0.0);
}

}  // namespace
}  // namespace mwc::tsp
