// Head-to-head of the exhaustive O(n²) tour polish against the
// candidate-list O(n·k) path (2-opt/Or-opt with don't-look bits). Both
// arms build their tours on the same Delaunay-sparse q-rooted MSF, which
// the binary first checks against dense Prim (exit 1 on any difference)
// whenever the exhaustive arm runs.
//
//   ./micro_improve [--n 800] [--q 4] [--k 12] [--trials 3]
//                   [--threads 0] [--exhaustive-cap 3000] [--json PATH]
//                   [--metrics-out PATH] [--trace-out PATH]
//
// Above --exhaustive-cap the O(n²) exhaustive arm is skipped (its sweeps
// take hours at n = 10k+) and the candidate arm is additionally timed
// with the geom::simd backend disabled, so the large-n grid cells report
// the vector-vs-scalar ratio of the identical candidate pipeline
// instead (bit-identical tours either way).
//
// Both arms run the full q_rooted_tsp pipeline (MSF → double-tree →
// polish) on the identical oracle-backed instance; the candidate arm's
// timing includes building the CandidateGraph, since that is part of its
// pipeline cost. --threads > 1 additionally reports the candidate arm
// with per-charger polish fanned out over a ThreadPool (bit-identical
// tours, see tests/tsp/candidates_test.cpp).
//
// scripts/bench_improve.sh loops n in {100, 800, 2000} and merges the
// --json outputs into BENCH_improve.json (target: >= 5x at n=800 with
// <= 1% longer tours). CI runs `--trials 1 --n 100` and validates the
// --metrics-out sidecar, pinning the tsp.cand.* / tsp.improve.* counter
// schema.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "../tests/support/dense_msf.hpp"
#include "geom/simd.hpp"
#include "obs/obs.hpp"
#include "tsp/candidates.hpp"
#include "tsp/oracle.hpp"
#include "tsp/qrooted.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mwc;
  CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int_or("n", 800));
  const auto q = static_cast<std::size_t>(args.get_int_or("q", 4));
  const auto k = static_cast<std::size_t>(args.get_int_or("k", 12));
  const auto trials = static_cast<std::size_t>(args.get_int_or("trials", 3));
  const auto threads =
      static_cast<std::size_t>(args.get_int_or("threads", 0));
  const auto exhaustive_cap =
      static_cast<std::size_t>(args.get_int_or("exhaustive-cap", 3000));
  const bool run_exhaustive = n <= exhaustive_cap;
  const std::string json_path = args.get_or("json", "");
  const std::string metrics_path = args.get_or("metrics-out", "");
  const std::string trace_path = args.get_or("trace-out", "");
  if (!trace_path.empty()) obs::set_trace_enabled(true);

  // Deterministic instance; the oracle caches distance rows lazily, so
  // fill them all before timing either arm. Above ~8 GiB the O(n²)
  // matrix cannot exist and the arms run on direct geometry.
  Rng rng(20140917 + n);
  tsp::QRootedInstance instance;
  instance.depots.reserve(q);
  for (std::size_t l = 0; l < q; ++l)
    instance.depots.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  instance.sensors.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    instance.sensors.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  const double matrix_gb = static_cast<double>(n + q) *
                           static_cast<double>(n + q) * 8.0 /
                           (1024.0 * 1024.0 * 1024.0);
  const bool matrix_fits = matrix_gb <= 8.0;
  tsp::DistanceOracle oracle;
  tsp::DistanceView view;
  double checksum = 0.0;
  if (matrix_fits) {
    oracle = tsp::DistanceOracle(instance.depots, instance.sensors);
    oracle.materialize_all();
    view = oracle.view();
  } else {
    view = tsp::DistanceView::direct(instance.depots, instance.sensors);
  }

  tsp::QRootedOptions exhaustive;
  exhaustive.improve = true;
  exhaustive.improve_options.exhaustive = true;

  tsp::QRootedOptions candidate;
  candidate.improve = true;
  candidate.candidate_options.k = k;

  const auto sparse = tsp::q_rooted_msf(view, q);
  checksum += sparse.total_weight;
  if (run_exhaustive) {
    const std::string diff =
        testing::forest_diff(sparse, testing::dense_q_rooted_msf(view, q));
    if (!diff.empty()) {
      std::fprintf(stderr, "FAIL: sparse MSF differs from dense Prim: %s\n",
                   diff.c_str());
      return 1;
    }
  }

  const auto combined = instance.points().materialize();

  double exhaustive_ms = 0.0;
  double candidate_ms = 0.0;
  double candidate_scalar_ms = 0.0;
  double parallel_ms = 0.0;
  double exhaustive_length = 0.0;
  double candidate_length = 0.0;
  double candidate_scalar_length = 0.0;
  Timer timer;
  for (std::size_t t = 0; t < trials; ++t) {
    double e_ms = 0.0;
    if (run_exhaustive) {
      timer.reset();
      const auto ref = tsp::q_rooted_tsp(view, q, exhaustive);
      e_ms = timer.elapsed_ms();
      exhaustive_length = ref.total_length;
      checksum += ref.total_length;
    }

    // Graph construction is inside the timed region on purpose: the
    // candidate arm pays for its own index.
    timer.reset();
    const auto graph = tsp::CandidateGraph::build(
        combined, candidate.candidate_options);
    tsp::QRootedOptions with_graph = candidate;
    with_graph.candidates = &graph;
    const auto acc = tsp::q_rooted_tsp(view, q, with_graph);
    const double c_ms = timer.elapsed_ms();
    candidate_length = acc.total_length;
    checksum += acc.total_length;

    // The identical candidate pipeline on the scalar fallback kernels —
    // the vector-vs-scalar ratio for the large-n cells (tours must come
    // out bit-identical; geom/simd.hpp's exactness contract).
    geom::simd::set_enabled(false);
    timer.reset();
    const auto scalar_graph = tsp::CandidateGraph::build(
        combined, candidate.candidate_options);
    tsp::QRootedOptions with_scalar_graph = candidate;
    with_scalar_graph.candidates = &scalar_graph;
    const auto sc = tsp::q_rooted_tsp(view, q, with_scalar_graph);
    const double s_ms = timer.elapsed_ms();
    geom::simd::set_enabled(true);
    candidate_scalar_length = sc.total_length;
    checksum += sc.total_length;

    double p_ms = c_ms;
    if (threads != 1) {
      ThreadPool pool(threads);
      timer.reset();
      const auto par = tsp::q_rooted_tsp(view, q, with_graph, &pool);
      p_ms = timer.elapsed_ms();
      checksum += par.total_length;
    }

    if (t == 0) {
      exhaustive_ms = e_ms;
      candidate_ms = c_ms;
      candidate_scalar_ms = s_ms;
      parallel_ms = p_ms;
    } else {
      exhaustive_ms = std::min(exhaustive_ms, e_ms);
      candidate_ms = std::min(candidate_ms, c_ms);
      candidate_scalar_ms = std::min(candidate_scalar_ms, s_ms);
      parallel_ms = std::min(parallel_ms, p_ms);
    }
  }

  const double speedup = candidate_ms > 0.0 ? exhaustive_ms / candidate_ms
                                            : 0.0;
  const double simd_speedup =
      candidate_ms > 0.0 ? candidate_scalar_ms / candidate_ms : 0.0;
  const double quality_pct =
      exhaustive_length > 0.0
          ? (candidate_length / exhaustive_length - 1.0) * 100.0
          : 0.0;
  std::printf("micro_improve: n=%zu q=%zu k=%zu trials=%zu (%s view)\n", n, q,
              k, trials, matrix_fits ? "oracle" : "direct");
  if (run_exhaustive) {
    std::printf("  exhaustive polish %10.3f ms  length %12.3f\n",
                exhaustive_ms, exhaustive_length);
  } else {
    std::printf("  exhaustive polish skipped (n > cap %zu)\n", exhaustive_cap);
  }
  std::printf("  candidate polish  %10.3f ms  length %12.3f\n",
              candidate_ms, candidate_length);
  std::printf("  candidate scalar  %10.3f ms  length %12.3f  (%.2fx simd)\n",
              candidate_scalar_ms, candidate_scalar_length, simd_speedup);
  std::printf("  parallel polish   %10.3f ms\n", parallel_ms);
  std::printf("  speedup %.2fx, tour delta %+.3f%%  (checksum %.3f)\n",
              speedup, quality_pct, checksum);
  if (candidate_scalar_length != candidate_length) {
    std::fprintf(stderr,
                 "FAIL: scalar-fallback candidate tours diverged from the "
                 "simd tours (%.6f vs %.6f)\n",
                 candidate_scalar_length, candidate_length);
    return 1;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_improve\",\n"
                 "  \"n\": %zu,\n"
                 "  \"q\": %zu,\n"
                 "  \"k\": %zu,\n"
                 "  \"trials\": %zu,\n"
                 "  \"exhaustive_ran\": %s,\n"
                 "  \"exhaustive_ms\": %.6f,\n"
                 "  \"candidate_ms\": %.6f,\n"
                 "  \"candidate_scalar_ms\": %.6f,\n"
                 "  \"simd_speedup\": %.3f,\n"
                 "  \"parallel_ms\": %.6f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"exhaustive_length\": %.6f,\n"
                 "  \"candidate_length\": %.6f,\n"
                 "  \"quality_delta_pct\": %.4f\n"
                 "}\n",
                 n, q, k, trials, run_exhaustive ? "true" : "false",
                 exhaustive_ms, candidate_ms, candidate_scalar_ms,
                 simd_speedup, parallel_ms, speedup, exhaustive_length,
                 candidate_length, quality_pct);
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
  if (!trace_path.empty()) {
    if (obs::write_chrome_trace(trace_path)) {
      std::printf("wrote %s (%zu events)\n", trace_path.c_str(),
                  obs::trace_event_count());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  return 0;
}
