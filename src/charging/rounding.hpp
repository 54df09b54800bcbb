// Geometric charging-cycle rounding (Sec. V-A of the paper).
//
// Sensors are partitioned into K+1 classes V_0..V_K by their maximum
// charging cycle: v_i ∈ V_k iff 2^k τ_1 <= τ_i < 2^(k+1) τ_1, where τ_1 is
// the smallest cycle and K = floor(log2(τ_max / τ_1)). Every sensor in V_k
// is assigned the rounded cycle τ'_i = 2^k τ_1; Eq. (1) guarantees
// τ_i / 2 < τ'_i <= τ_i, which costs at most a factor 2 in charge
// frequency but makes all assigned cycles divide each other — the property
// the power-of-two round structure of Algorithm 3 exploits.
#pragma once

#include <cstddef>
#include <vector>

namespace mwc::charging {

struct CyclePartition {
  double tau1 = 0.0;                ///< smallest maximum charging cycle
  std::size_t K = 0;                ///< floor(log2(tau_max / tau1))
  std::vector<std::size_t> level;   ///< per sensor: its class k
  std::vector<double> assigned;     ///< per sensor: τ'_i = 2^k τ_1
  std::vector<std::vector<std::size_t>> groups;  ///< V_0..V_K (sensor ids)

  /// 2^k τ_1, the common cycle of class k.
  double class_cycle(std::size_t k) const;
};

/// Builds the partition from per-sensor maximum cycles (all > 0).
CyclePartition partition_by_cycles(const std::vector<double>& cycles);

/// Sensor set of the paper's j-th scheduling C_j (1-based): the union of
/// all V_k with j mod 2^k == 0, k = 0..K. Sorted ascending. The
/// definitional form, concatenating and sorting on every call; the
/// policies index round_sets_by_depth instead, and tests check the two
/// agree.
std::vector<std::size_t> round_sensor_set(const CyclePartition& partition,
                                          std::size_t j);

/// The K+1 distinct round sets, indexed by depth: entry k is
/// V_0 ∪ … ∪ V_k, sorted ascending, so round j's set C_j is entry
/// round_depth(partition, j). Built by merging each sorted class into the
/// previous entry, so a caller that dispatches many rounds pays no
/// per-round concatenation or sort. Holds at most (K+1)·n ids.
std::vector<std::vector<std::size_t>> round_sets_by_depth(
    const CyclePartition& partition);

/// Largest k in [0, K] with j mod 2^k == 0, i.e. the highest class charged
/// in round j (the round's "depth": min(trailing zeros of j, K)).
std::size_t round_depth(const CyclePartition& partition, std::size_t j);

}  // namespace mwc::charging
