// Result record of one simulated monitoring period.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace mwc::sim {

struct DeathEvent {
  std::size_t sensor = 0;
  double time = 0.0;
};

/// One executed charging scheduling (recorded when
/// SimOptions::record_dispatches is set).
struct DispatchRecord {
  double time = 0.0;
  std::vector<std::size_t> sensors;
  double cost = 0.0;  ///< total tour length of this round
};

struct SimResult {
  /// Total travelled distance of all chargers over the period — the
  /// paper's "service cost" (same length unit as the field; the benches
  /// report km for a metre-denominated field).
  double service_cost = 0.0;
  /// Distance broken down per charger/depot.
  std::vector<double> per_charger_cost;
  /// Number of charging schedulings executed.
  std::size_t num_dispatches = 0;
  /// Number of individual sensor charges across all dispatches.
  std::size_t num_sensor_charges = 0;
  /// Distinct sensors that ran out of energy at least once (0 for a
  /// feasible policy).
  std::size_t dead_sensors = 0;
  /// Every depletion event (first per discharge interval).
  std::vector<DeathEvent> deaths;
  /// Executed dispatches, oldest first (only when
  /// SimOptions::record_dispatches is set; just the first one under
  /// record_first_dispatch; empty otherwise).
  std::vector<DispatchRecord> dispatch_log;
  /// Smallest residual lifetime observed at any charge instant — the
  /// tightest margin by which the policy stayed feasible.
  double min_residual_at_charge = std::numeric_limits<double>::infinity();
  /// Tour-cost cache hits/misses during this run. A dispatch whose set
  /// was already costed (earlier in the run, in a previous run, or by
  /// Simulator::precost_dispatches) counts as a hit; for
  /// MinTotalDistance with a cold cache, misses == K + 1 (the distinct
  /// round classes) and hits == num_dispatches - (K + 1).
  std::size_t tour_cache_hits = 0;
  std::size_t tour_cache_misses = 0;
  /// Round builds during this run: one per costed set (a cache miss),
  /// plus the first round's rebuild when SimOptions::record_first_dispatch
  /// keeps tours the cache or a capacitated plan could not supply.
  std::size_t tour_builds = 0;
  /// Wall-clock seconds spent simulating (policy + tour construction).
  double wall_seconds = 0.0;

  bool feasible() const noexcept { return dead_sensors == 0; }
};

/// Accumulates per-run results into a mean (benches aggregate over
/// topologies with full Summary statistics; this is the quick form).
SimResult average(const std::vector<SimResult>& results);

}  // namespace mwc::sim
