// Shared pieces of the mwcd benchmark: run sizes, exact quantiles, the
// per-run outcome (metrics, attempted / failed ops), and the seeded
// input stream every workload draws from.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace mwcbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Instance sizes and op counts of one run. `full` is what BENCHMARK.json
/// measures; `tiny` keeps the same shape at sizes a self-test can afford.
struct Sizes {
  std::size_t q = 5;
  std::size_t setups = 5;  ///< set-ups per run; setup_s is their median

  // cold: distinct v1 instances, closed loop on 2 connections.
  std::size_t cold_n = 2000;
  std::size_t cold_cache = 16;    ///< mwcd --cache-capacity
  std::size_t cold_summed = 512;  ///< leading instances the cost sums cover
  std::size_t cold_checked = 16;  ///< leading instances re-solved in-process
  std::size_t cold_traced = 4;    ///< instances the traced replay decomposes

  // warm: working set solved during set-up, then hits only.
  std::size_t warm_n = 800;
  std::size_t warm_set = 192;
  std::size_t warm_cache = 512;
  double warm_rate = 500.0;       ///< open-loop requests per second
  std::size_t warm_window = 32;   ///< pipelined requests in flight
  std::size_t warm_traced = 4000; ///< hits the traced replay serves

  // replan: v2 solve, delta chain, stream session per episode.
  std::size_t replan_n = 800;
  std::size_t replan_cache = 64;
  std::size_t deltas = 8;      ///< deltas per episode
  std::size_t observes = 16;   ///< observe frames per episode
  std::size_t replan_checked = 8;  ///< leading episodes replayed in-process
  std::size_t replan_traced = 2;   ///< episodes the traced replay runs
};

Sizes full_sizes();
Sizes tiny_sizes();

/// One quantile read off raw samples by nearest rank: the sample at
/// 1-based rank ceil(q * n) of the sorted samples, never interpolated.
struct Quantile {
  double q = 0.0;
  double value = 0.0;
  std::size_t n = 0;       ///< samples
  std::size_t beyond = 0;  ///< samples strictly after the chosen rank
};

/// Exact quantile; throws std::runtime_error when fewer than ten samples
/// lie beyond it (the percentile is then not measured by this run).
Quantile exact_quantile(std::vector<double> samples, double q);

/// Median of raw samples (nearest rank, same rule as exact_quantile but
/// without the ten-beyond requirement; used for set-up repeats).
double median_of(std::vector<double> samples);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< printed beside the value (sample counts etc.)
};

/// What one workload run measured and how many ops it attempted / lost.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< extra result lines (gen_late, ...)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure reasons

  void add(std::string name, std::string unit, double value,
           std::string note = {});
  void add_quantile(std::string name, const Quantile& q);
  /// Counts one failed op and keeps its reason (first 20 only).
  void fail(const std::string& why);
};

/// Deterministic per-purpose streams derived from the run seed. Wire
/// seeds are kept below 2^31 so they round-trip through JSON numbers.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);
inline std::uint64_t wire_seed(std::uint64_t seed, std::uint64_t stream) {
  return (mix(seed, stream) & 0x7fffffffULL) + 1;
}
inline std::mt19937_64 stream_rng(std::uint64_t seed, std::uint64_t stream) {
  return std::mt19937_64(mix(seed, stream));
}
inline double uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
}

}  // namespace mwcbench
