// One-shot solve entry point over a *prebuilt* instance.
//
// The experiment runner (exp::run_trial / run_policies) generates its own
// topologies; a serving layer receives them. solve_network() runs one
// monitoring period of `policy` over a caller-supplied network + cycle
// process and additionally returns the q closed tours of the first
// executed charging round (the very tours the simulator costed that round
// with), which is what an on-demand client actually drives: the fleet's
// next rollout plus the horizon-total cost.
#pragma once

#include <span>

#include "charging/schedule.hpp"
#include "geom/point.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "tsp/candidates.hpp"
#include "tsp/qrooted.hpp"
#include "tsp/tour.hpp"
#include "wsn/cycles.hpp"
#include "wsn/network.hpp"

namespace mwc::sim {

/// The first executed charging round, as explicit tours. Tours are in
/// the *global* combined labeling: node l < q is depot l, node q + i is
/// sensor id i (not dispatch-local positions).
struct RoundPlan {
  std::vector<std::size_t> sensors;  ///< the round's dispatch set
  std::vector<tsp::Tour> tours;      ///< one per depot, combined labels
  std::vector<double> tour_lengths;
  double total_length = 0.0;
  /// The round's q-rooted MSF in *round-local* combined space (depot l
  /// is node l, the j-th entry of `sensors` is node q + j) — kept so
  /// incremental re-planning can repair it instead of re-solving.
  tsp::QRootedForest forest;
};

struct SolveOutcome {
  SimResult result;      ///< full-horizon simulation (first dispatch logged)
  RoundPlan first_round; ///< empty when the policy never dispatched
  /// The candidate graph the first round's build made for its polish,
  /// over q depots + first_round.sensors in round order; empty when the
  /// build made none (see tsp::QRootedTours::candidates).
  tsp::CandidateGraph round_candidates;
};

/// Runs one monitoring period of `policy` on the given instance.
/// `options.record_first_dispatch` is forced on: the first dispatch is the
/// product, and the result's dispatch_log holds only it (the full log
/// when the caller set record_dispatches). The first round is the
/// simulator's own build of that set (Simulator::take_first_round), so
/// it is built once per solve. Deterministic: equal inputs give
/// bit-identical outcomes.
SolveOutcome solve_network(const wsn::Network& network,
                           const wsn::CycleProcess& cycles,
                           SimOptions options, charging::Policy& policy);

/// A patch against a base RoundPlan, expressed in the *patched* network's
/// id space. The svc delta layer folds wire patch ops into this form.
struct RoundPatch {
  /// The new dispatch set: global sensor ids of the patched network,
  /// ordered surviving-base-sensors-first (in base round order), then
  /// additions. The order fixes the new round-local combined space.
  std::vector<std::size_t> sensors;
  /// Parallel to `sensors`: the index of the same physical sensor in the
  /// base round's dispatch set, or npos (size_t(-1)) for an addition.
  std::vector<std::size_t> base_slot;
  /// New-round-local combined ids whose geometry or status changed:
  /// q + j for moved or added sensors, depot index l for a charger whose
  /// availability flipped. Drives dirty-tree selection and the localized
  /// re-polish seeds.
  std::vector<std::size_t> touched;
  /// Per-depot availability (size q, or empty for "all active"). At
  /// least one depot must stay active.
  std::vector<char> charger_active;
};

struct ReplanOutcome {
  RoundPlan round;                 ///< tours global-labeled, forest local
  tsp::CandidateGraph candidates;  ///< repaired graph, new local space
  tsp::MsfRepairStats msf;
  std::size_t reused_tours = 0;      ///< clean trees, tour copied verbatim
  std::size_t repolished_tours = 0;  ///< same tree re-derived, seeded polish
  std::size_t rebuilt_tours = 0;     ///< tree changed, tour rebuilt
};

/// Incrementally re-plans one charging round after a patch: repairs the
/// candidate graph (CandidateGraph::repair), repairs the q-rooted MSF over
/// the dirty region only (repair_q_rooted_msf), rebuilds tours only for
/// trees that actually changed, and re-polishes surviving tours locally
/// (ImproveOptions::seed_nodes) when candidate-mode polish is active.
///
/// `network` is the *patched* network; `base`/`base_points` (q depots +
/// base round sensors, round-local order) and `base_candidates` describe
/// the cached base round. The result's tour weight is never worse than a
/// full re-solve of the patched round with the same `options` (changed
/// trees re-run the identical construct+polish pipeline; unchanged trees
/// keep their already-polished tours, optionally improved further).
ReplanOutcome replan_round(const wsn::Network& network, const RoundPlan& base,
                           std::span<const geom::Point> base_points,
                           const tsp::CandidateGraph& base_candidates,
                           const RoundPatch& patch,
                           const tsp::QRootedOptions& options);

}  // namespace mwc::sim
