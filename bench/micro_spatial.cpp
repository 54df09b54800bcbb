// Microbenchmark: kd-tree nearest-neighbour and k-NN queries over
// uniform and clustered sensor deployments (the spatial index behind
// every candidate graph, see DESIGN.md), plus a SoA brute-force baseline
// through the geom::simd row kernel. The kd-tree is insensitive to
// clustering; brute force wins only at tiny n.
//
//   ./micro_spatial [--n 10000] [--queries 2048] [--k 12]
//                   [--json PATH] [--metrics-out PATH]
//
// Every k-NN query is also cross-checked against the brute-force scan:
// both must return the identical (index, distance) list — the tie-break
// contract pinned by tests/geom/soa_test.cpp — so a bench run doubles as
// an agreement sweep at sizes the unit tests don't reach.
//
// scripts/bench_spatial.sh loops n in {1k, 10k, 100k}, merges the JSON
// outputs into BENCH_spatial.json, and validates the --metrics-out
// sidecar (the geom.simd.* counters) with scripts/validate_metrics.py.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geom/kdtree.hpp"
#include "geom/simd.hpp"
#include "geom/soa.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using mwc::Rng;
using mwc::geom::KdTree;
using mwc::geom::Point;

std::vector<Point> uniform_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  return pts;
}

std::vector<Point> clustered_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  const std::size_t clusters = 8;
  std::vector<Point> centers;
  for (std::size_t c = 0; c < clusters; ++c)
    centers.push_back({rng.uniform(100.0, 900.0),
                       rng.uniform(100.0, 900.0)});
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = centers[i % clusters];
    pts.push_back({c.x + rng.normal(0.0, 20.0), c.y + rng.normal(0.0, 20.0)});
  }
  return pts;
}

/// Per-query microseconds for `fn(q)` over every query point.
template <typename Fn>
double per_query_us(std::span<const Point> queries, Fn&& fn) {
  mwc::Timer timer;
  for (const Point& q : queries) fn(q);
  return timer.elapsed_ms() * 1e3 / static_cast<double>(queries.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mwc;
  CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int_or("n", 10'000));
  const auto num_queries =
      static_cast<std::size_t>(args.get_int_or("queries", 2048));
  const auto k = static_cast<std::size_t>(args.get_int_or("k", 12));
  const std::string json_path = args.get_or("json", "");
  const std::string metrics_path = args.get_or("metrics-out", "");

  const auto uniform = uniform_points(n, 1);
  const auto clustered = clustered_points(n, 1);
  const auto queries = uniform_points(num_queries, 2);
  double checksum = 0.0;  // defeats dead-code elimination

  // Build time (one cold build; construction is not the hot path).
  Timer timer;
  const KdTree kd(uniform);
  const double kd_build_ms = timer.elapsed_ms();
  const KdTree kd_clustered(clustered);

  // Nearest-neighbour throughput, uniform and clustered deployments.
  const double kd_nn_us = per_query_us(
      queries, [&](const Point& q) { checksum += kd.nearest(q); });
  const double kd_nn_clustered_us = per_query_us(
      queries, [&](const Point& q) { checksum += kd_clustered.nearest(q); });

  // k-NN throughput.
  const double kd_knn_us = per_query_us(queries, [&](const Point& q) {
    checksum += kd.knearest(q, k).back().second;
  });

  // Brute-force baseline: one geom::simd squared-distance row over the
  // SoA coordinates per query, then a scalar argmin. Linear in n, but at
  // small n it beats the kd-tree's pointer chasing — the crossover is
  // the design datum this bench exists to record.
  const geom::PointsSoA soa{std::span<const Point>(uniform)};
  std::vector<double> d2(n);
  const double brute_nn_us = per_query_us(queries, [&](const Point& q) {
    geom::simd::distance2_row(q.x, q.y, soa.xs().data(), soa.ys().data(),
                              d2.data(), n);
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (d2[i] < d2[best]) best = i;
    checksum += static_cast<double>(best);
  });

  // Every k-NN row must equal the brute-force one: sorted by
  // (distance^2, index) off the same SIMD squared-distance row.
  std::size_t disagreements = 0;
  std::vector<std::pair<double, std::size_t>> ranked(n);
  const std::size_t kk = std::min(k, n);
  for (const Point& q : queries) {
    geom::simd::distance2_row(q.x, q.y, soa.xs().data(), soa.ys().data(),
                              d2.data(), n);
    for (std::size_t i = 0; i < n; ++i) ranked[i] = {d2[i], i};
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(kk),
                      ranked.end());
    std::vector<std::pair<std::size_t, double>> brute(kk);
    for (std::size_t j = 0; j < kk; ++j)
      brute[j] = {ranked[j].second, std::sqrt(ranked[j].first)};
    if (kd.knearest(q, k) != brute) ++disagreements;
  }

  std::printf("micro_spatial: n=%zu queries=%zu k=%zu backend=%s\n", n,
              num_queries, k, geom::simd::backend());
  std::printf("  build        kdtree %8.3f ms\n", kd_build_ms);
  std::printf("  nn uniform   kdtree %8.3f us   brute %8.3f us\n", kd_nn_us,
              brute_nn_us);
  std::printf("  nn clustered kdtree %8.3f us\n", kd_nn_clustered_us);
  std::printf("  knn (k=%zu)   kdtree %8.3f us   (%zu/%zu disagreements)\n", k,
              kd_knn_us, disagreements, num_queries);
  std::printf("  (checksum %.3f)\n", checksum);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_spatial\",\n"
                 "  \"n\": %zu,\n"
                 "  \"queries\": %zu,\n"
                 "  \"k\": %zu,\n"
                 "  \"backend\": \"%s\",\n"
                 "  \"kd_build_ms\": %.6f,\n"
                 "  \"kd_nn_us\": %.6f,\n"
                 "  \"brute_nn_us\": %.6f,\n"
                 "  \"kd_nn_clustered_us\": %.6f,\n"
                 "  \"kd_knn_us\": %.6f,\n"
                 "  \"knn_disagreements\": %zu\n"
                 "}\n",
                 n, num_queries, k, geom::simd::backend(), kd_build_ms,
                 kd_nn_us, brute_nn_us, kd_nn_clustered_us, kd_knn_us,
                 disagreements);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!metrics_path.empty()) {
    if (obs::Registry::global().write_json(metrics_path)) {
      std::printf("wrote %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
  }
  if (disagreements != 0) {
    std::fprintf(stderr,
                 "FAIL: kd-tree and brute-force k-NN lists disagree on "
                 "%zu/%zu queries\n",
                 disagreements, num_queries);
    return 1;
  }
  return 0;
}
