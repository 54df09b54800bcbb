#include "charging/rounding.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/assert.hpp"

namespace mwc::charging {

double CyclePartition::class_cycle(std::size_t k) const {
  return std::ldexp(tau1, static_cast<int>(k));  // tau1 * 2^k
}

CyclePartition partition_by_cycles(const std::vector<double>& cycles) {
  CyclePartition partition;
  if (cycles.empty()) return partition;

  double tau_min = cycles[0];
  double tau_max = cycles[0];
  for (double tau : cycles) {
    MWC_ASSERT_MSG(tau > 0.0, "charging cycles must be positive");
    tau_min = std::min(tau_min, tau);
    tau_max = std::max(tau_max, tau);
  }
  partition.tau1 = tau_min;

  // K = floor(log2(tau_max / tau1)) with floating-point guard rails.
  auto level_of = [&](double tau) -> std::size_t {
    const double ratio = tau / tau_min;
    auto k = static_cast<long long>(std::floor(std::log2(ratio)));
    if (k < 0) k = 0;
    // Correct boundary rounding: ensure 2^k <= ratio < 2^(k+1).
    while (std::ldexp(1.0, static_cast<int>(k + 1)) <= ratio) ++k;
    while (k > 0 && std::ldexp(1.0, static_cast<int>(k)) > ratio) --k;
    return static_cast<std::size_t>(k);
  };

  partition.K = level_of(tau_max);
  partition.groups.assign(partition.K + 1, {});
  partition.level.resize(cycles.size());
  partition.assigned.resize(cycles.size());
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const std::size_t k = level_of(cycles[i]);
    partition.level[i] = k;
    partition.assigned[i] = partition.class_cycle(k);
    partition.groups[k].push_back(i);
    // Eq. (1): τ_i / 2 < τ'_i <= τ_i (tolerate tiny FP slack).
    MWC_DEBUG_ASSERT(partition.assigned[i] <= cycles[i] * (1.0 + 1e-12));
    MWC_DEBUG_ASSERT(partition.assigned[i] > cycles[i] / 2.0 * (1.0 - 1e-12));
  }
  return partition;
}

std::size_t round_depth(const CyclePartition& partition, std::size_t j) {
  MWC_ASSERT(j >= 1);
  std::size_t k = 0;
  while (k < partition.K && (j % (std::size_t{1} << (k + 1))) == 0) ++k;
  return k;
}

std::vector<std::size_t> round_sensor_set(const CyclePartition& partition,
                                          std::size_t j) {
  std::vector<std::size_t> set;
  if (partition.groups.empty()) return set;
  const std::size_t depth = round_depth(partition, j);
  for (std::size_t k = 0; k <= depth; ++k) {
    set.insert(set.end(), partition.groups[k].begin(),
               partition.groups[k].end());
  }
  std::sort(set.begin(), set.end());
  return set;
}

std::vector<std::vector<std::size_t>> round_sets_by_depth(
    const CyclePartition& partition) {
  std::vector<std::vector<std::size_t>> sets;
  sets.reserve(partition.groups.size());
  std::vector<std::size_t> set;
  for (const auto& group : partition.groups) {
    // Each class lists its sensors in id order, so merging it in keeps
    // the union sorted.
    const auto mid = static_cast<std::ptrdiff_t>(set.size());
    set.insert(set.end(), group.begin(), group.end());
    std::inplace_merge(set.begin(), set.begin() + mid, set.end());
    sets.push_back(set);
  }
  return sets;
}

}  // namespace mwc::charging
