// Tests for the mwc.svc.v2 delta engine: patch canonicalization
// (commuting op lists share a derived fingerprint), the handle_delta
// service path (repair, derived-plan caching, chaining, structured
// errors), and the golden equivalence grid — a delta-repaired plan's
// first round is never worse than re-solving the patched instance from
// scratch, across n x patch-size combinations.
#include "svc/delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/point.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "svc/engine.hpp"
#include "svc/plan_cache.hpp"
#include "svc/wire.hpp"

namespace mwc::svc {
namespace {

constexpr std::size_t kN = 20;
constexpr std::size_t kQ = 3;
const std::vector<char> kAllActive;  // empty = every charger up

std::uint64_t fold_fp(const std::vector<PatchOp>& patch) {
  return patch_fingerprint(fold_patch(patch, kN, kQ, kAllActive));
}

/// Shorthand: build a patch list through the wire builder.
std::vector<PatchOp> patch_of(const DeltaRequest& request) {
  return request.patch;
}

TEST(FoldPatch, CommutingOpsShareFingerprint) {
  const auto a = patch_of(DeltaBuilder("x", 0)
                              .move_sensor(3, {10.0, 10.0})
                              .remove_sensor(7)
                              .update_cycles(1, 5.0)
                              .charger_down(0)
                              .build());
  const auto b = patch_of(DeltaBuilder("x", 0)
                              .charger_down(0)
                              .update_cycles(1, 5.0)
                              .remove_sensor(7)
                              .move_sensor(3, {10.0, 10.0})
                              .build());
  const auto c = patch_of(DeltaBuilder("x", 0)
                              .remove_sensor(7)
                              .move_sensor(3, {10.0, 10.0})
                              .charger_down(0)
                              .update_cycles(1, 5.0)
                              .build());
  EXPECT_EQ(fold_fp(a), fold_fp(b));
  EXPECT_EQ(fold_fp(a), fold_fp(c));
}

TEST(FoldPatch, LastWriterWinsOnRepeatedMoves) {
  const auto twice = patch_of(DeltaBuilder("x", 0)
                                  .move_sensor(3, {1.0, 1.0})
                                  .move_sensor(3, {2.0, 2.0})
                                  .build());
  const auto direct =
      patch_of(DeltaBuilder("x", 0).move_sensor(3, {2.0, 2.0}).build());
  const auto other =
      patch_of(DeltaBuilder("x", 0).move_sensor(3, {1.0, 1.0}).build());
  EXPECT_EQ(fold_fp(twice), fold_fp(direct));
  EXPECT_NE(fold_fp(twice), fold_fp(other));
}

TEST(FoldPatch, MoveThenRemoveFoldsToRemove) {
  const auto move_remove = patch_of(DeltaBuilder("x", 0)
                                        .move_sensor(5, {9.0, 9.0})
                                        .remove_sensor(5)
                                        .build());
  const auto remove_only =
      patch_of(DeltaBuilder("x", 0).remove_sensor(5).build());
  EXPECT_EQ(fold_fp(move_remove), fold_fp(remove_only));
}

TEST(FoldPatch, ChargerDownUpFoldsOut) {
  const auto with_flip = patch_of(DeltaBuilder("x", 0)
                                      .remove_sensor(1)
                                      .charger_down(2)
                                      .charger_up(2)
                                      .build());
  const auto without =
      patch_of(DeltaBuilder("x", 0).remove_sensor(1).build());
  EXPECT_EQ(fold_fp(with_flip), fold_fp(without));
  EXPECT_TRUE(
      fold_patch(with_flip, kN, kQ, kAllActive).charger.empty());
}

TEST(FoldPatch, AdditionOrderIsSignificant) {
  // Arrival order assigns the new sensor ids, so it must hash as-is.
  const auto ab = patch_of(DeltaBuilder("x", 0)
                               .add_sensor({1.0, 0.0}, 4.0)
                               .add_sensor({2.0, 0.0}, 6.0)
                               .build());
  const auto ba = patch_of(DeltaBuilder("x", 0)
                               .add_sensor({2.0, 0.0}, 6.0)
                               .add_sensor({1.0, 0.0}, 4.0)
                               .build());
  EXPECT_NE(fold_fp(ab), fold_fp(ba));
}

TEST(FoldPatch, ValidatesReferences) {
  const auto fold = [](const std::vector<PatchOp>& patch, std::size_t n = kN,
                       std::size_t q = kQ) {
    return fold_patch(patch, n, q, kAllActive);
  };
  // Out-of-range ids.
  EXPECT_THROW(
      fold(patch_of(DeltaBuilder("x", 0).remove_sensor(kN).build())),
      WireError);
  EXPECT_THROW(
      fold(patch_of(DeltaBuilder("x", 0).charger_down(kQ).build())),
      WireError);
  // References to a sensor this patch already removed.
  EXPECT_THROW(fold(patch_of(DeltaBuilder("x", 0)
                                 .remove_sensor(3)
                                 .move_sensor(3, {1.0, 1.0})
                                 .build())),
               WireError);
  EXPECT_THROW(fold(patch_of(
                   DeltaBuilder("x", 0).remove_sensor(3).remove_sensor(3)
                       .build())),
               WireError);
  // Non-positive cycles.
  EXPECT_THROW(
      fold(patch_of(DeltaBuilder("x", 0).add_sensor({1.0, 1.0}, 0.0)
                        .build())),
      WireError);
  EXPECT_THROW(
      fold(patch_of(DeltaBuilder("x", 0).update_cycles(2, -1.0).build())),
      WireError);
  // Emptying the network.
  EXPECT_THROW(fold(patch_of(DeltaBuilder("x", 0)
                                 .remove_sensor(0)
                                 .remove_sensor(1)
                                 .build()),
                    /*n=*/2),
               WireError);
  // Downing every charger.
  EXPECT_THROW(fold(patch_of(DeltaBuilder("x", 0)
                                 .charger_down(0)
                                 .charger_down(1)
                                 .build()),
                    kN, /*q=*/2),
               WireError);
}

TEST(DerivedFingerprint, MixesBaseAndPatch) {
  const PatchState state = fold_patch(
      patch_of(DeltaBuilder("x", 0).remove_sensor(2).build()), kN, kQ,
      kAllActive);
  const PatchState other = fold_patch(
      patch_of(DeltaBuilder("x", 0).remove_sensor(3).build()), kN, kQ,
      kAllActive);
  EXPECT_NE(derived_fingerprint(1, state), derived_fingerprint(2, state));
  EXPECT_NE(derived_fingerprint(1, state), derived_fingerprint(1, other));
  // And the derived key never collides with its own base.
  EXPECT_NE(derived_fingerprint(1, state), 1u);
}

/// Solves a uniform-τ preset instance into `cache`, returning the base
/// plan fingerprint.
std::uint64_t solve_base(PlanCache& cache, std::size_t n, std::size_t q,
                         double field, std::uint64_t seed, double horizon,
                         bool improve = false) {
  const Request request =
      RequestBuilder("base")
          .preset(n, q, field, seed)
          .cycle_values(std::vector<double>(n, 5.0))
          .horizon(horizon)
          .improve(improve)
          .build();
  const Response response = handle_request(request, &cache);
  EXPECT_TRUE(response.ok) << response.message;
  return response.plan->fingerprint;
}

TEST(HandleDelta, BaseStateKeepsTheFirstRoundsCandidateGraph) {
  // Uniform τ: one round class of all 300 sensors. With polish on, the
  // graph the first round's build made moves into the base state; with
  // polish off the state builds it. Either way one build per solve, and
  // the graph is the one over q depots + the round's sensors.
  for (const bool improve : {true, false}) {
    SCOPED_TRACE(improve ? "polish on" : "polish off");
    PlanCache cache(4);
    auto& builds = obs::Registry::global().counter("tsp.cand.rebuilds");
    const auto before = builds.value();
    const std::uint64_t base =
        solve_base(cache, 300, 3, 1000.0, 5, 20.0, improve);
#if MWC_OBS_ENABLED
    EXPECT_EQ(builds.value() - before, 1u);
#else
    (void)before;
#endif
    const auto state = cache.get_state(base);
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->round.sensors.size(), 300u);
    const auto fresh = tsp::CandidateGraph::build(
        state->round_points, state->sim.tour_options.candidate_options);
    ASSERT_EQ(state->round_candidates.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const auto got = state->round_candidates.neighbors(i);
      const auto want = fresh.neighbors(i);
      EXPECT_TRUE(
          std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "row " << i;
    }
  }
}

TEST(HandleDelta, RepairsAndCachesDerivedPlans) {
  PlanCache cache(16);
  const std::uint64_t base = solve_base(cache, 30, 2, 400.0, 11, 60.0);
  const std::shared_ptr<const Plan> base_plan = cache.get(base);
  ASSERT_NE(base_plan, nullptr);

  const DeltaRequest delta = DeltaBuilder("d1", base)
                                 .move_sensor(3, {120.5, 80.0})
                                 .remove_sensor(17)
                                 .build();
  const Response first = handle_delta(delta, &cache);
  ASSERT_TRUE(first.ok) << first.message;
  EXPECT_EQ(first.version, WireVersion::kV2);
  EXPECT_TRUE(first.derived);
  EXPECT_EQ(first.base_fingerprint, base);
  EXPECT_FALSE(first.cached);
  ASSERT_NE(first.plan, nullptr);
  EXPECT_NE(first.plan->fingerprint, base);
  // Horizon aggregates are inherited from the base plan.
  EXPECT_DOUBLE_EQ(first.plan->total_distance, base_plan->total_distance);
  EXPECT_EQ(first.plan->num_dispatches, base_plan->num_dispatches);
  // One sensor left the round, and ids were compacted to the derived
  // instance (0..28 after removing one of 30); the moved sensor keeps
  // id 3 (below the removed id) and is still served.
  std::size_t served = 0, served_moves = 0;
  for (const PlanTour& tour : first.plan->first_round_tours)
    for (std::size_t s : tour.sensors) {
      EXPECT_LT(s, 29u);
      ++served;
      if (s == 3u) ++served_moves;
    }
  EXPECT_EQ(served, 29u);
  EXPECT_EQ(served_moves, 1u);

  // Same patch again: derived-plan cache hit.
  const Response repeat = handle_delta(delta, &cache);
  ASSERT_TRUE(repeat.ok);
  EXPECT_TRUE(repeat.cached);
  EXPECT_EQ(repeat.plan->fingerprint, first.plan->fingerprint);

  // A commuted spelling of the same patch folds to the same derived key.
  const DeltaRequest commuted = DeltaBuilder("d2", base)
                                    .remove_sensor(17)
                                    .move_sensor(3, {120.5, 80.0})
                                    .build();
  const Response equivalent = handle_delta(commuted, &cache);
  ASSERT_TRUE(equivalent.ok);
  EXPECT_TRUE(equivalent.cached);
  EXPECT_EQ(equivalent.plan->fingerprint, first.plan->fingerprint);
}

TEST(HandleDelta, DerivedPlansChain) {
  PlanCache cache(16);
  const std::uint64_t base = solve_base(cache, 30, 2, 400.0, 11, 60.0);
  const Response first = handle_delta(
      DeltaBuilder("d1", base).move_sensor(4, {30.0, 30.0}).build(),
      &cache);
  ASSERT_TRUE(first.ok) << first.message;
  // The derived plan is itself a valid delta base.
  const Response second = handle_delta(
      DeltaBuilder("d2", first.plan->fingerprint)
          .add_sensor({210.0, 210.0}, 5.0)
          .build(),
      &cache);
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_TRUE(second.derived);
  EXPECT_EQ(second.base_fingerprint, first.plan->fingerprint);
  // The addition took the next free sensor id (base n=30, one add).
  bool serves_new = false;
  for (const PlanTour& tour : second.plan->first_round_tours)
    for (std::size_t s : tour.sensors)
      if (s == 30u) serves_new = true;
  EXPECT_TRUE(serves_new);
}

/// A charger downed by one delta stays down in every plan derived from
/// it, so a later delta that does not touch it still runs against an
/// inactive root whose tree nothing marked dirty.
TEST(HandleDelta, ChainOnDownedChargerKeepsItHome) {
  constexpr std::size_t n = 200;
  PlanCache cache(16);
  const std::uint64_t base = solve_base(cache, n, 3, 1000.0, 11, 60.0);
  const Response down = handle_delta(
      DeltaBuilder("d1", base).charger_down(0).build(), &cache);
  ASSERT_TRUE(down.ok) << down.message;

  // Nudge the sensor farthest from charger 0, so that neither the moved
  // sensor nor its candidate neighbours lead the repair back to it.
  const auto state = cache.get_state(base);
  ASSERT_NE(state, nullptr);
  const geom::Point depot = state->network.depots()[0];
  std::size_t far = 0;
  for (std::size_t s = 1; s < n; ++s)
    if (geom::distance(state->network.sensor_points()[s], depot) >
        geom::distance(state->network.sensor_points()[far], depot))
      far = s;
  const geom::Point at = state->network.sensor_points()[far];
  const Response moved = handle_delta(
      DeltaBuilder("d2", down.plan->fingerprint)
          .move_sensor(far, {at.x + 1.0, at.y + 1.0})
          .build(),
      &cache);
  ASSERT_TRUE(moved.ok) << moved.message;
  EXPECT_TRUE(moved.derived);
  EXPECT_EQ(moved.base_fingerprint, down.plan->fingerprint);

  std::vector<int> served(n, 0);
  bool saw_downed = false;
  for (const PlanTour& tour : moved.plan->first_round_tours) {
    if (tour.depot == 0) {
      saw_downed = true;
      EXPECT_TRUE(tour.sensors.empty()) << "downed charger was dispatched";
      EXPECT_EQ(tour.length, 0.0);
    }
    for (const std::size_t s : tour.sensors) {
      ASSERT_LT(s, served.size());
      ++served[s];
    }
  }
  EXPECT_TRUE(saw_downed);
  for (std::size_t s = 0; s < served.size(); ++s)
    EXPECT_EQ(served[s], 1) << "sensor " << s;
}

TEST(HandleDelta, StructuredErrors) {
  PlanCache cache(16);
  const DeltaRequest orphan =
      DeltaBuilder("d", 0x123).remove_sensor(0).build();
  // Base fingerprint not cached.
  const Response unknown = handle_delta(orphan, &cache);
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.error, ErrorCode::kUnknownBase);
  EXPECT_EQ(unknown.version, WireVersion::kV2);
  EXPECT_EQ(unknown.base_fingerprint, 0x123u);
  // No cache at all: the delta path cannot resolve any base.
  EXPECT_EQ(handle_delta(orphan, nullptr).error, ErrorCode::kUnknownBase);

  // Invalid patch against a real base.
  const std::uint64_t base = solve_base(cache, 30, 2, 400.0, 11, 60.0);
  const Response bad = handle_delta(
      DeltaBuilder("d", base).remove_sensor(999).build(), &cache);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, ErrorCode::kBadRequest);
  EXPECT_EQ(bad.version, WireVersion::kV2);
}

/// Deadline-driven round admission must only fire for cycles that were
/// genuinely *shortened* below the round's urgency bar. A τ that grew
/// (or stayed put) — even one sitting below the bar — must leave the
/// dispatched round untouched.
TEST(HandleDelta, DeadlineAdmissionRequiresShortenedCycle) {
  PlanCache cache(16);
  constexpr std::size_t n = 24;
  // Mixed cycles: the τ=5 sensors form the first dispatch round
  // (V_0 = [τ_min, 2 τ_min]); the τ=30 sensors sit outside it.
  std::vector<double> tau(n);
  for (std::size_t i = 0; i < n; ++i) tau[i] = (i % 2 == 0) ? 5.0 : 30.0;
  const Request request = RequestBuilder("base")
                              .preset(n, 2, 400.0, /*seed=*/5)
                              .cycle_values(tau)
                              .horizon(60.0)
                              .build();
  const Response base = handle_request(request, &cache);
  ASSERT_TRUE(base.ok) << base.message;

  const auto in_round = [](const Response& r, std::size_t s) {
    for (const PlanTour& tour : r.plan->first_round_tours)
      for (const std::size_t id : tour.sensors)
        if (id == s) return true;
    return false;
  };
  std::size_t a = n, b = n;  // a: in the round; b: outside it
  for (std::size_t i = 0; i < n; ++i) {
    if (in_round(base, i)) {
      if (a == n) a = i;
    } else if (b == n) {
      b = i;
    }
  }
  ASSERT_LT(a, n);
  ASSERT_LT(b, n);
  ASSERT_DOUBLE_EQ(tau[b], 30.0);

  // Raise the round's urgency bar: lengthen in-round sensor a's τ to 40
  // (membership is inherited by the repair, so a stays dispatched and
  // round_tau_max becomes 40 in the derived state).
  const Response lifted =
      handle_delta(DeltaBuilder("lift", base.plan->fingerprint)
                       .update_cycles(a, 40.0)
                       .build(),
                   &cache);
  ASSERT_TRUE(lifted.ok) << lifted.message;
  EXPECT_TRUE(in_round(lifted, a));
  EXPECT_FALSE(in_round(lifted, b));

  // b's τ grows 30 -> 35: below the bar, but NOT shortened — it must
  // not be force-inserted into the round.
  const Response longer =
      handle_delta(DeltaBuilder("longer", lifted.plan->fingerprint)
                       .update_cycles(b, 35.0)
                       .build(),
                   &cache);
  ASSERT_TRUE(longer.ok) << longer.message;
  EXPECT_FALSE(in_round(longer, b));

  // b's τ restated at exactly 30 (unchanged within the value quantum):
  // same story.
  const Response same =
      handle_delta(DeltaBuilder("same", lifted.plan->fingerprint)
                       .update_cycles(b, 30.0)
                       .build(),
                   &cache);
  ASSERT_TRUE(same.ok) << same.message;
  EXPECT_FALSE(in_round(same, b));

  // Genuinely shortened below the bar: b joins the dispatch.
  const Response shortened =
      handle_delta(DeltaBuilder("short", lifted.plan->fingerprint)
                       .update_cycles(b, 6.0)
                       .build(),
                   &cache);
  ASSERT_TRUE(shortened.ok) << shortened.message;
  EXPECT_TRUE(in_round(shortened, b));
}

/// The equivalence grid: repairing the base plan must never serve the
/// patched round with a longer tour set than re-solving the patched
/// instance from scratch. Uniform τ keeps the first dispatch set equal
/// on both paths (all live sensors), so first-round lengths compare
/// like for like.
TEST(HandleDelta, DeltaNeverWorseThanFullResolve) {
  const double kField = 1000.0;
  const double kHorizon = 15.0;
  for (std::size_t n : {std::size_t{100}, std::size_t{800},
                        std::size_t{2000}}) {
    const Request base_request =
        RequestBuilder("base")
            .preset(n, 3, kField, /*seed=*/7)
            .cycle_values(std::vector<double>(n, 5.0))
            .horizon(kHorizon)
            .improve(true)
            .build();
    PlanCache cache(8);
    const Response base = handle_request(base_request, &cache);
    ASSERT_TRUE(base.ok) << base.message;
    const ResolvedInstance instance = resolve(base_request);
    const std::vector<geom::Point>& points =
        instance.network.sensor_points();

    for (std::size_t patch_size : {1u, 4u, 16u}) {
      // Deterministic mixed patch: mostly moves, an add and a removal in
      // the larger sizes. Additions reuse τ=5 so they join the round on
      // the full path too.
      DeltaBuilder builder("d", base.plan->fingerprint);
      std::vector<geom::Point> patched = points;
      std::vector<char> dropped(n, 0);
      for (std::size_t k = 0; k < patch_size; ++k) {
        const std::size_t s = (k * 37 + 11) % n;
        if (patch_size >= 4 && k == 1) {
          builder.remove_sensor(s);
          dropped[s] = 1;
        } else if (patch_size >= 4 && k == 2) {
          const geom::Point p{kField * 0.15 + 3.0 * k, kField * 0.85};
          builder.add_sensor(p, 5.0);
          patched.push_back(p);
        } else {
          const double dx = (k % 2 == 0) ? 18.5 : -12.0;
          const double dy = (k % 3 == 0) ? -9.0 : 14.0;
          const geom::Point p{points[s].x + dx, points[s].y + dy};
          builder.move_sensor(s, p);
          patched[s] = p;
        }
      }
      const Response delta = handle_delta(builder.build(), &cache);
      ASSERT_TRUE(delta.ok) << delta.message;

      std::vector<geom::Point> survivors;
      for (std::size_t i = 0; i < patched.size(); ++i)
        if (i >= n || !dropped[i]) survivors.push_back(patched[i]);
      const Request full_request =
          RequestBuilder("full")
              .inline_network(survivors, instance.network.depots(),
                              instance.network.base_station())
              .cycle_values(std::vector<double>(survivors.size(), 5.0))
              .horizon(kHorizon)
              .improve(true)
              .build();
      const Response full = handle_request(full_request, nullptr);
      ASSERT_TRUE(full.ok) << full.message;

      EXPECT_LE(delta.plan->first_round_length,
                full.plan->first_round_length + 1e-9)
          << "n=" << n << " patch=" << patch_size;
    }
  }
}

}  // namespace
}  // namespace mwc::svc
