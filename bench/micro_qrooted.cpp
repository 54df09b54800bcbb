// Microbenchmarks of the algorithmic kernels: Prim's dense MST, the
// q-rooted MSF/TSP (Algorithms 1 and 2), and the tour improvers. The
// paper's Algorithm 1 is O(n²) per scheduling; BM_QRootedMsf runs up to
// m = 100k to show the Delaunay-sparse span's O(m log m).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/mst.hpp"
#include "tsp/construct.hpp"
#include "tsp/improve.hpp"
#include "tsp/qrooted.hpp"
#include "util/rng.hpp"

namespace {

using mwc::Rng;
using mwc::geom::Point;

std::vector<Point> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  return pts;
}

mwc::tsp::QRootedInstance random_instance(std::size_t q, std::size_t m,
                                          std::uint64_t seed) {
  Rng rng(seed);
  mwc::tsp::QRootedInstance inst;
  for (std::size_t l = 0; l < q; ++l)
    inst.depots.push_back({rng.uniform(0.0, 1000.0),
                           rng.uniform(0.0, 1000.0)});
  for (std::size_t k = 0; k < m; ++k)
    inst.sensors.push_back({rng.uniform(0.0, 1000.0),
                            rng.uniform(0.0, 1000.0)});
  return inst;
}

void BM_PrimMstDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = random_points(n, 1);
  for (auto _ : state) {
    auto mst = mwc::graph::prim_mst(
        n, [&](std::size_t a, std::size_t b) {
          return mwc::geom::distance(pts[a], pts[b]);
        });
    benchmark::DoNotOptimize(mst.total_weight);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_PrimMstDense)->Range(64, 1024)->Complexity(benchmark::oNSquared);

void BM_QRootedMsf(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto inst = random_instance(5, m, 2);
  for (auto _ : state) {
    auto forest = mwc::tsp::q_rooted_msf(inst);
    benchmark::DoNotOptimize(forest.total_weight);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_QRootedMsf)
    ->Range(64, 1024)
    ->Arg(2'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNLogN);

// Sensors on an integer lattice: every unit cell is exactly co-circular
// and every row collinear, so the triangulation's predicates fall through
// their floating-point filters to the exact stage.
void BM_QRootedMsfGrid(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  auto inst = random_instance(5, 0, 2);
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(m))));
  for (std::size_t k = 0; k < m; ++k)
    inst.sensors.push_back({static_cast<double>(k % side),
                            static_cast<double>(k / side)});
  for (auto _ : state) {
    auto forest = mwc::tsp::q_rooted_msf(inst);
    benchmark::DoNotOptimize(forest.total_weight);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_QRootedMsfGrid)
    ->Arg(2'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNLogN);

void BM_QRootedTsp(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto inst = random_instance(5, m, 3);
  for (auto _ : state) {
    auto tours = mwc::tsp::q_rooted_tsp(inst);
    benchmark::DoNotOptimize(tours.total_length);
  }
}
BENCHMARK(BM_QRootedTsp)->Range(64, 1024);

// Algorithm 3's K+1 nested round sets V_0 ⊆ V_0 ∪ V_1 ⊆ … ⊆ V at the
// sizes of a cold n=2000 request (τ ∈ [1, 50], so K = 5), each toured
// over a dispatch view of the full network the way Simulator costs it.
void BM_QRootedTspNested(benchmark::State& state) {
  const auto inst = random_instance(5, 2000, 7);
  Rng rng(8);
  std::vector<std::size_t> arrival(inst.m());
  for (std::size_t k = 0; k < arrival.size(); ++k) arrival[k] = k;
  mwc::shuffle(arrival.begin(), arrival.end(), rng);
  std::vector<std::vector<std::size_t>> levels;
  for (const std::size_t size : {5, 29, 125, 560, 1610, 2000}) {
    std::vector<std::size_t> set(arrival.begin(),
                                 arrival.begin() + static_cast<long>(size));
    std::sort(set.begin(), set.end());
    levels.push_back(std::move(set));
  }
  const auto network = inst.distances();
  for (auto _ : state) {
    double total = 0.0;
    for (const auto& set : levels)
      total += mwc::tsp::q_rooted_tsp(network.dispatch(inst.q(), set),
                                      inst.q())
                   .total_length;
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_QRootedTspNested)->Unit(benchmark::kMillisecond);

void BM_QRootedTspImproved(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto inst = random_instance(5, m, 4);
  mwc::tsp::QRootedOptions options;
  options.improve = true;
  for (auto _ : state) {
    auto tours = mwc::tsp::q_rooted_tsp(inst, options);
    benchmark::DoNotOptimize(tours.total_length);
  }
}
BENCHMARK(BM_QRootedTspImproved)->Range(64, 256);

void BM_DoubleTreeTour(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = random_points(n, 5);
  for (auto _ : state) {
    auto tour = mwc::tsp::double_tree_tour(pts);
    benchmark::DoNotOptimize(tour.size());
  }
}
BENCHMARK(BM_DoubleTreeTour)->Range(64, 2048);

// Algorithm 2's walk alone: tree_to_tour over one Euclidean MST built
// outside the loop. BM_DoubleTreeTour above is almost all dense Prim
// (O(n²)), so the Euler walk and shortcut only show here.
void BM_TreeToTour(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = random_points(n, 5);
  const auto mst = mwc::graph::prim_mst(n, [&](std::size_t a, std::size_t b) {
    return mwc::geom::distance(pts[a], pts[b]);
  });
  for (auto _ : state) {
    auto tour = mwc::tsp::tree_to_tour(mst.edges, 0);
    benchmark::DoNotOptimize(tour.size());
  }
}
BENCHMARK(BM_TreeToTour)->Range(64, 2048);

void BM_TwoOpt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = random_points(n, 6);
  const auto base = mwc::tsp::nearest_neighbor_tour(pts);
  for (auto _ : state) {
    auto tour = base;
    benchmark::DoNotOptimize(mwc::tsp::two_opt(tour, pts));
  }
}
BENCHMARK(BM_TwoOpt)->Range(32, 256);

}  // namespace
