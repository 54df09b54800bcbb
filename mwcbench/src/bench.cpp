#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace mwcbench {

Sizes full_sizes() { return Sizes{}; }

Sizes tiny_sizes() {
  Sizes s;
  s.setups = 2;
  s.cold_n = 150;
  s.cold_cache = 4;
  s.cold_summed = 8;
  s.cold_checked = 6;
  s.cold_traced = 2;
  s.warm_n = 60;
  s.warm_set = 12;
  s.warm_cache = 128;
  s.warm_rate = 1500.0;
  s.warm_window = 8;
  s.warm_traced = 200;
  s.replan_n = 60;
  s.replan_cache = 64;
  s.deltas = 30;
  s.observes = 8;
  s.replan_checked = 2;
  s.replan_traced = 1;
  return s;
}

Quantile exact_quantile(std::vector<double> samples, double q) {
  Quantile out;
  out.q = q;
  out.n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(out.n)));  // 1-based
  if (out.n == 0 || rank == 0 || out.n - rank < 10) {
    char what[128];
    std::snprintf(what, sizeof what,
                  "p%g needs ten samples beyond it; the run has %zu", q * 100,
                  out.n);
    throw std::runtime_error(what);
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = out.n - rank;
  return out;
}

double median_of(std::vector<double> samples) {
  if (samples.empty()) throw std::runtime_error("median of no samples");
  const std::size_t rank = (samples.size() + 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

void Outcome::add(std::string name, std::string unit, double value,
                  std::string note) {
  metrics.push_back(
      Metric{std::move(name), std::move(unit), value, std::move(note)});
}

void Outcome::add_quantile(std::string name, const Quantile& q) {
  char note[96];
  std::snprintf(note, sizeof note, "p%g of n=%zu (%zu beyond)", q.q * 100,
                q.n, q.beyond);
  add(std::move(name), "ms", q.value, note);
}

void Outcome::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 20) errors.push_back(why);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over the pair: independent streams per purpose.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace mwcbench
