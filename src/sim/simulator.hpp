// Event-driven network simulator.
//
// Time is continuous. Per-sensor state is the residual lifetime — the time
// left until depletion at the current consumption rate; this is exact for
// piecewise-constant rates, which is what the slot model produces:
//   * advancing by δ subtracts δ,
//   * a full charge resets it to the current cycle τ_i(t),
//   * a slot redraw rescales it by τ_new/τ_old (the *energy fraction* is
//     what carries over when the consumption rate changes).
//
// The simulator alternates between the policy's next planned dispatch and
// the next slot boundary (variable-cycle runs only), executes whichever
// comes first, and charges each dispatch's service cost as the total
// length of the q closed tours that Algorithm 2 (tsp::q_rooted_tsp) builds
// over the dispatch set — identical costing for every policy. Costs are
// memoized by dispatch set, which collapses the K+1 distinct round classes
// of MinTotalDistance to K+1 tour constructions per run.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "charging/schedule.hpp"
#include "obs/registry.hpp"
#include "sim/metrics.hpp"
#include "tsp/oracle.hpp"
#include "tsp/qrooted.hpp"
#include "util/thread_pool.hpp"
#include "wsn/cycles.hpp"
#include "wsn/network.hpp"

namespace mwc::sim {

/// Thrown by Simulator::run when a run exceeds SimOptions::max_dispatches
/// (a runaway policy, or a horizon too long for the cycles), so no
/// request can turn the cap into an abort().
class DispatchCapError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by Simulator::run when the clock passes SimOptions::deadline
/// mid-run; the run's partial result is discarded.
class DeadlineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SimOptions {
  double horizon = 1000.0;     ///< monitoring period T
  /// Slot length ΔT for cycle redraws; <= 0 freezes cycles at slot 0
  /// (the fixed-maximum-charging-cycle setting).
  double slot_length = 0.0;
  /// How each round's q tours are built (construction heuristic +
  /// optional 2-opt/Or-opt polish, candidate-list acceleration). Defaults
  /// match the paper. Every round is tsp::q_rooted_tsp over the dispatch
  /// view with these options, so under tsp::candidate_polish() each
  /// distinct set builds its own graph inside q_rooted_tsp (memoized with
  /// the tour cost: at most one build per distinct set).
  tsp::QRootedOptions tour_options;
  /// Per-trip travel budget of each charger (metres); > 0 splits every
  /// round's tours via charging::plan_capacitated_round, adding the
  /// return legs a range-limited vehicle actually drives. <= 0 matches
  /// the paper's unlimited-range model.
  double trip_capacity = 0.0;
  /// Memoize tour costs per distinct dispatch set.
  bool cache_tour_costs = true;
  /// Record every executed dispatch into SimResult::dispatch_log (for
  /// replay validation and debugging).
  bool record_dispatches = false;
  /// Record only the first executed dispatch (solve_network serves that
  /// round and nothing else), so the log stays one sensor set long
  /// whatever the horizon. Implied by record_dispatches. Set explicitly,
  /// it also keeps that round's tours for take_first_round().
  bool record_first_dispatch = false;
  /// Hard cap on dispatches (guards against a runaway policy); exceeding
  /// it throws DispatchCapError.
  std::size_t max_dispatches = 10'000'000;
  /// Wall-clock bound on run(): the horizon loop reads the clock every
  /// few hundred events and before each tour build, and throws
  /// DeadlineError once it has passed. max() (the default) never reads
  /// the clock. The service sets it from
  /// a request's deadline_ms; it is not part of any wire format.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

class Simulator {
 public:
  Simulator(const wsn::Network& network, const wsn::CycleProcess& cycles,
            const SimOptions& options);

  /// Runs one full monitoring period under `policy`. Restartable: each
  /// call re-initializes all state (the tour-cost cache persists across
  /// runs; it depends only on the network geometry and options).
  SimResult run(charging::Policy& policy);

  /// Pre-warms the tour-cost cache with the given dispatch sets: missing
  /// sets are costed concurrently on `pool` (serially when null) and
  /// inserted into the cache. A subsequent run() then hits the cache on
  /// every dispatch of one of these sets. Costing only reads shared
  /// state (direct geometry); each set builds its own candidate graph. Returns
  /// the number of sets actually computed (not already cached). No-op
  /// when cache_tour_costs is off.
  std::size_t precost_dispatches(
      std::span<const std::vector<std::size_t>> sets,
      ThreadPool* pool = nullptr);

  /// Asks `policy` (after a reset at t = 0) for its planned dispatch
  /// sets and pre-costs them. Convenience wrapper used by the experiment
  /// runner before timed runs.
  std::size_t precost_policy(charging::Policy& policy,
                             ThreadPool* pool = nullptr);

  const SimOptions& options() const noexcept { return options_; }

  /// Moves out the q tours (with their forest and candidate graph) of the
  /// last run's first dispatch, kept when SimOptions::record_first_dispatch
  /// is set: the very tours that costed the round when run() built them,
  /// else one identical rebuild (after a precost hit). Under trip_capacity
  /// they are the round's Algorithm-2 tours, not its capacitated trips.
  /// Empty when the run dispatched nothing, the option was off, or the
  /// tours were already taken.
  std::optional<tsp::QRootedTours> take_first_round() {
    return std::exchange(first_round_, std::nullopt);
  }

  /// Shared pairwise-distance oracle over the network's q depots plus all
  /// n sensors (combined index space: depot l at l, sensor i at q + i).
  /// Built on first call (thread-safe); the uncapacitated solve path never
  /// calls it, so a plain run allocates no n² storage.
  const tsp::DistanceOracle& oracle() const;

  /// Direct-geometry view over one dispatch set: all q depots followed by
  /// the given sensors (local q + j is sensor sensors[j]). The node space
  /// and the distances (bit for bit) of oracle().dispatch_view(sensors),
  /// without the oracle.
  tsp::DistanceView dispatch_view(std::span<const std::size_t> sensors) const;

  /// Tour-cache statistics since construction, read from the simulator's
  /// metrics registry (run() snapshots the per-run delta into SimResult).
  std::size_t tour_cache_hits() const noexcept {
    return cache_hits_c_.value();
  }
  std::size_t tour_cache_misses() const noexcept {
    return cache_misses_c_.value();
  }

  /// Per-instance telemetry registry: the authoritative source of
  /// SimResult::tour_cache_hits/misses and wall_seconds. Instance-local
  /// (not obs::Registry::global()) so per-run deltas stay exact when
  /// many simulators run concurrently; the global registry receives the
  /// same events through MWC_OBS_* macros for process-wide aggregation.
  const obs::Registry& metrics() const noexcept { return metrics_; }
  obs::Registry& metrics() noexcept { return metrics_; }

 private:
  class View;

  struct TourCost {
    double total = 0.0;
    std::vector<double> per_depot;
  };

  /// Costs one dispatch set through the cache. A non-null `keep` also
  /// receives the set's tours: the costing build's on a miss, one
  /// rebuild on a hit.
  TourCost dispatch_cost(const std::vector<std::size_t>& sensors,
                         tsp::QRootedTours* keep = nullptr);
  /// Pure costing of one dispatch set over direct geometry; no cache
  /// access, safe to call concurrently. A non-null `keep` receives the
  /// set's Algorithm-2 tours.
  TourCost compute_cost(const std::vector<std::size_t>& sensors,
                        tsp::QRootedTours* keep = nullptr) const;
  /// Algorithm 2 over one dispatch set's view; counts a tour build.
  tsp::QRootedTours build_tours(const std::vector<std::size_t>& sensors) const;
  static std::uint64_t set_hash(const std::vector<std::size_t>& sensors);

  const wsn::Network& network_;
  const wsn::CycleProcess& cycle_model_;
  SimOptions options_;
  mutable std::once_flag oracle_once_;
  mutable std::unique_ptr<tsp::DistanceOracle> oracle_;
  std::unordered_map<std::uint64_t, TourCost> cost_cache_;
  /// The last run's first-dispatch tours (record_first_dispatch only):
  /// one set's tours, never one per round.
  std::optional<tsp::QRootedTours> first_round_;
  obs::Registry metrics_;
  obs::Counter& cache_hits_c_;    ///< metrics_ "sim.tour_cache_hits"
  obs::Counter& cache_misses_c_;  ///< metrics_ "sim.tour_cache_misses"
  obs::Counter& builds_c_;        ///< metrics_ "sim.tour_builds"
};

}  // namespace mwc::sim
