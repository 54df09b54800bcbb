// Microbenchmark for the SoA + portable-SIMD distance kernels at the
// extended size grid (n up to 100k sensors).
//
//   ./micro_kernels [--n 10000] [--q 10] [--reps 3]
//                   [--max-matrix-gb 8] [--json PATH]
//                   [--metrics-out PATH]
//
// Four arms, each timed with the vector backend enabled vs the scalar
// fallback (geom::simd::set_enabled) on the identical instance:
//   * fill   — LazyDistanceMatrix::materialize_all (the oracle row-fill
//              kernel); skipped when the n x n matrix would exceed
//              --max-matrix-gb, i.e. at n = 100k;
//   * row    — raw geom::simd::distance_row sweeps over the SoA
//              coordinates (no matrix, runs at every n);
//   * probe  — DistanceView::direct batched distances_to probes, the
//              shape the q-rooted MSF and 2-opt/Or-opt scans issue;
//   * solve  — end-to-end q_rooted_tsp (Delaunay-sparse MSF +
//              candidate polish), oracle-backed when the matrix fits and
//              through direct geometry above the cap.
//
// The two solve arms must produce *identical* tours (the kernels are
// bit-exact by contract — docs/ALGORITHMS.md §9); the binary exits
// nonzero if the tour lengths diverge by more than 1%, so CI catches a
// backend that trades accuracy for speed. Up to kDenseCheckMax sensors
// it also exits nonzero unless the sparse MSF equals dense Prim's edge
// for edge. scripts/bench_kernels.sh runs n in {10k, 100k} and merges
// the JSON outputs into BENCH_kernels.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "../tests/support/dense_msf.hpp"
#include "geom/simd.hpp"
#include "geom/soa.hpp"
#include "obs/obs.hpp"
#include "tsp/candidates.hpp"
#include "tsp/oracle.hpp"
#include "tsp/qrooted.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

mwc::tsp::QRootedInstance random_instance(std::size_t n, std::size_t q,
                                          std::uint64_t seed) {
  mwc::Rng rng(seed);
  mwc::tsp::QRootedInstance instance;
  instance.depots.reserve(q);
  for (std::size_t l = 0; l < q; ++l)
    instance.depots.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  instance.sensors.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    instance.sensors.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  return instance;
}

/// Times `fn()` `reps` times with the SIMD backend toggled as given and
/// returns the minimum (scheduler noise only ever adds time).
template <typename Fn>
double timed_min_ms(bool simd_on, std::size_t reps, Fn&& fn) {
  mwc::geom::simd::set_enabled(simd_on);
  double best = 0.0;
  mwc::Timer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    timer.reset();
    fn();
    const double ms = timer.elapsed_ms();
    best = r == 0 ? ms : std::min(best, ms);
  }
  mwc::geom::simd::set_enabled(true);
  return best;
}

/// Largest n whose sparse MSF is checked against O(n²) dense Prim.
constexpr std::size_t kDenseCheckMax = 20'000;

}  // namespace

int main(int argc, char** argv) {
  using namespace mwc;
  CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int_or("n", 10'000));
  const auto q = static_cast<std::size_t>(args.get_int_or("q", 10));
  const auto reps = static_cast<std::size_t>(args.get_int_or("reps", 3));
  const auto max_matrix_gb =
      static_cast<double>(args.get_int_or("max-matrix-gb", 8));
  const std::string json_path = args.get_or("json", "");
  const std::string metrics_path = args.get_or("metrics-out", "");

  const auto instance = random_instance(n, q, 20140917 + n);
  const std::size_t total = n + q;
  const double matrix_gb = static_cast<double>(total) *
                           static_cast<double>(total) * 8.0 / (1024.0 * 1024.0 * 1024.0);
  const bool matrix_fits = matrix_gb <= max_matrix_gb;
  double checksum = 0.0;  // defeats dead-code elimination

  std::printf("micro_kernels: n=%zu q=%zu reps=%zu backend=%s lanes=%u\n", n,
              q, reps, geom::simd::backend(),
              static_cast<unsigned>(geom::simd::lanes()));
  if (!geom::simd::compiled_in())
    std::printf("  (MWC_SIMD=OFF build: both arms run the scalar loops)\n");

  // --- fill: oracle row materialization, the hottest kernel in the
  // q-rooted pipeline. A fresh matrix per rep so every rep pays every
  // row, but construction (allocation) stays outside the timed region —
  // the arm measures the fill kernel, not mmap.
  double fill_scalar_ms = 0.0, fill_simd_ms = 0.0, fill_hypot_ms = 0.0;
  if (matrix_fits) {
    // One untimed cold pass faults the n^2 pages in; the timed reps
    // reset the row flags and re-fill warm storage, so the arm measures
    // the fill kernel rather than the page-fault cost both arms share.
    geom::LazyDistanceMatrix warm(instance.points().materialize());
    warm.materialize_all();
    const auto fill_with = [&](bool simd_on) {
      geom::simd::set_enabled(simd_on);
      double best = 0.0;
      Timer timer;
      for (std::size_t r = 0; r < reps; ++r) {
        warm.reset();
        timer.reset();
        warm.materialize_all();
        const double ms = timer.elapsed_ms();
        best = r == 0 ? ms : std::min(best, ms);
        checksum += warm(0, total - 1);
      }
      geom::simd::set_enabled(true);
      return best;
    };
    fill_simd_ms = fill_with(true);
    fill_scalar_ms = fill_with(false);

    // Seed fill baseline: every entry through per-pair std::hypot on the
    // AoS points, the LazyDistanceMatrix::fill_row this PR replaced (one
    // pass — it is the slow arm). Reusing one cache-resident row buffer
    // even flatters it: the real seed also paid the n^2 stores.
    const auto aos = instance.points().materialize();
    std::vector<double> seed_row(total);
    Timer seed_timer;
    for (std::size_t i = 0; i < total; ++i) {
      const geom::Point& p = aos[i];
      for (std::size_t j = 0; j < total; ++j)
        seed_row[j] = std::hypot(p.x - aos[j].x, p.y - aos[j].y);
      checksum += seed_row[total - 1];
    }
    fill_hypot_ms = seed_timer.elapsed_ms();

    const double entries =
        static_cast<double>(total) * static_cast<double>(total);
    std::printf("  fill   scalar %10.3f ms   simd %10.3f ms   %5.2fx"
                "  (%.1fM entries/s vectorized)\n",
                fill_scalar_ms, fill_simd_ms,
                fill_simd_ms > 0.0 ? fill_scalar_ms / fill_simd_ms : 0.0,
                entries / fill_simd_ms / 1e3);
    std::printf("  fill   hypot  %10.3f ms   (seed kernel, %5.2fx vs simd "
                "fill)\n",
                fill_hypot_ms,
                fill_simd_ms > 0.0 ? fill_hypot_ms / fill_simd_ms : 0.0);
  } else {
    std::printf("  fill   skipped (matrix %.1f GiB > cap %.1f GiB)\n",
                matrix_gb, max_matrix_gb);
  }

  // --- row: the raw distance_row kernel over the SoA coordinates. Runs
  // at every n (no O(n^2) storage): kRows query rows of n entries each.
  const geom::PointsSoA soa(instance.depots, instance.sensors);
  const std::size_t row_count = std::min<std::size_t>(total, 2048);
  std::vector<double> row_out(total);
  const auto row_once = [&] {
    for (std::size_t i = 0; i < row_count; ++i) {
      geom::simd::distance_row(soa.x(i), soa.y(i), soa.xs().data(),
                               soa.ys().data(), row_out.data(), total);
      checksum += row_out[total - 1];
    }
  };
  const double row_simd_ms = timed_min_ms(true, reps, row_once);
  const double row_scalar_ms = timed_min_ms(false, reps, row_once);

  // Seed baseline: the per-pair std::hypot AoS loop these row kernels
  // replaced (the pre-SoA distance-matrix row fill). The
  // honest "what did the rewrite buy end-users" number; the scalar arm
  // above isolates the vectorization share of it (both arms run the
  // identical sqrt(squared_norm) arithmetic, so on hosts whose single
  // sqrt unit bounds vector throughput the on/off ratio tops out near
  // 2x while the hypot ratio stays large).
  const auto points_aos = instance.points().materialize();
  const auto row_hypot_once = [&] {
    for (std::size_t i = 0; i < row_count; ++i) {
      const geom::Point& p = points_aos[i];
      for (std::size_t j = 0; j < total; ++j)
        row_out[j] = std::hypot(p.x - points_aos[j].x, p.y - points_aos[j].y);
      checksum += row_out[total - 1];
    }
  };
  const double row_hypot_ms = timed_min_ms(true, reps, row_hypot_once);

  const double row_entries =
      static_cast<double>(row_count) * static_cast<double>(total);
  std::printf("  row    scalar %10.3f ms   simd %10.3f ms   %5.2fx"
              "  (%zu rows, %.1fM entries/s vectorized)\n",
              row_scalar_ms, row_simd_ms,
              row_simd_ms > 0.0 ? row_scalar_ms / row_simd_ms : 0.0,
              row_count, row_entries / row_simd_ms / 1e3);
  std::printf("  seed   hypot  %10.3f ms   (%5.2fx vs simd row kernel, "
              "%5.2fx vs scalar fallback)\n",
              row_hypot_ms,
              row_simd_ms > 0.0 ? row_hypot_ms / row_simd_ms : 0.0,
              row_scalar_ms > 0.0 ? row_hypot_ms / row_scalar_ms : 0.0);

  // --- probe: batched DistanceView::direct probes (gather + one row
  // kernel per call), the exact shape the MSF/2-opt scans issue.
  const auto direct =
      tsp::DistanceView::direct(instance.depots, instance.sensors);
  constexpr std::size_t kBatch = 4096;
  std::vector<std::size_t> js(std::min<std::size_t>(kBatch, total));
  {
    Rng rng(0xBA7C);
    for (auto& j : js)
      j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
  }
  std::vector<double> probe_out(js.size());
  const std::size_t probe_iters = 1024;
  const auto probe_once = [&] {
    for (std::size_t it = 0; it < probe_iters; ++it) {
      direct.distances_to(it % total, js, probe_out.data());
      checksum += probe_out[0];
    }
  };
  const double probe_simd_ms = timed_min_ms(true, reps, probe_once);
  const double probe_scalar_ms = timed_min_ms(false, reps, probe_once);
  std::printf("  probe  scalar %10.3f ms   simd %10.3f ms   %5.2fx"
              "  (%zu probes/batch)\n",
              probe_scalar_ms, probe_simd_ms,
              probe_simd_ms > 0.0 ? probe_scalar_ms / probe_simd_ms : 0.0,
              js.size());

  // --- solve: end-to-end q_rooted_tsp, sparse MSF + candidate polish.
  // Oracle-backed when the matrix fits (row fills dominate); direct
  // geometry above the cap (the n = 100k grid cell). First, the sparse
  // MSF must be dense Prim's forest (O(n²), so only up to a cap).
  if (n <= kDenseCheckMax) {
    const std::string diff = testing::forest_diff(
        tsp::q_rooted_msf(direct, q), testing::dense_q_rooted_msf(direct, q));
    if (!diff.empty()) {
      std::fprintf(stderr, "FAIL: sparse MSF differs from dense Prim: %s\n",
                   diff.c_str());
      return 1;
    }
    std::printf("  msf    sparse == dense Prim (edge for edge)\n");
  }
  tsp::QRootedOptions options;
  options.improve = true;
  const auto graph =
      tsp::CandidateGraph::build(points_aos, options.candidate_options);
  options.candidates = &graph;

  const char* solve_mode = matrix_fits ? "oracle" : "direct";
  double solve_scalar_ms = 0.0, solve_simd_ms = 0.0;
  double solve_scalar_length = 0.0, solve_simd_length = 0.0;
  const auto solve_with = [&](bool simd_on, double& ms_out,
                              double& length_out) {
    geom::simd::set_enabled(simd_on);
    Timer timer;
    for (std::size_t r = 0; r < reps; ++r) {
      timer.reset();
      double length = 0.0;
      if (matrix_fits) {
        // Fresh oracle per rep: the row fills are the point of the arm.
        const tsp::DistanceOracle oracle(instance.depots, instance.sensors);
        length = tsp::q_rooted_tsp(oracle.view(), q, options).total_length;
      } else {
        length = tsp::q_rooted_tsp(direct, q, options).total_length;
      }
      const double ms = timer.elapsed_ms();
      ms_out = r == 0 ? ms : std::min(ms_out, ms);
      length_out = length;
      checksum += length;
    }
    geom::simd::set_enabled(true);
  };
  solve_with(true, solve_simd_ms, solve_simd_length);
  solve_with(false, solve_scalar_ms, solve_scalar_length);

  const double solve_speedup =
      solve_simd_ms > 0.0 ? solve_scalar_ms / solve_simd_ms : 0.0;
  const double tour_delta_pct =
      solve_scalar_length > 0.0
          ? (solve_simd_length / solve_scalar_length - 1.0) * 100.0
          : 0.0;
  std::printf("  solve  scalar %10.3f ms   simd %10.3f ms   %5.2fx"
              "  (%s view, tour delta %+.4f%%)\n",
              solve_scalar_ms, solve_simd_ms, solve_speedup, solve_mode,
              tour_delta_pct);
  std::printf("  (checksum %.3f)\n", checksum);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_kernels\",\n"
                 "  \"n\": %zu,\n"
                 "  \"q\": %zu,\n"
                 "  \"reps\": %zu,\n"
                 "  \"backend\": \"%s\",\n"
                 "  \"lanes\": %u,\n"
                 "  \"simd_compiled_in\": %s,\n"
                 "  \"matrix_fits\": %s,\n"
                 "  \"fill_scalar_ms\": %.6f,\n"
                 "  \"fill_simd_ms\": %.6f,\n"
                 "  \"fill_speedup\": %.3f,\n"
                 "  \"fill_hypot_ms\": %.6f,\n"
                 "  \"fill_speedup_vs_seed\": %.3f,\n"
                 "  \"row_rows\": %zu,\n"
                 "  \"row_scalar_ms\": %.6f,\n"
                 "  \"row_simd_ms\": %.6f,\n"
                 "  \"row_speedup\": %.3f,\n"
                 "  \"row_hypot_ms\": %.6f,\n"
                 "  \"row_speedup_vs_seed\": %.3f,\n"
                 "  \"probe_scalar_ms\": %.6f,\n"
                 "  \"probe_simd_ms\": %.6f,\n"
                 "  \"probe_speedup\": %.3f,\n"
                 "  \"solve_mode\": \"%s\",\n"
                 "  \"solve_scalar_ms\": %.6f,\n"
                 "  \"solve_simd_ms\": %.6f,\n"
                 "  \"solve_speedup\": %.3f,\n"
                 "  \"solve_scalar_length\": %.6f,\n"
                 "  \"solve_simd_length\": %.6f,\n"
                 "  \"tour_delta_pct\": %.6f\n"
                 "}\n",
                 n, q, reps, geom::simd::backend(),
                 static_cast<unsigned>(geom::simd::lanes()),
                 geom::simd::compiled_in() ? "true" : "false",
                 matrix_fits ? "true" : "false", fill_scalar_ms, fill_simd_ms,
                 fill_simd_ms > 0.0 ? fill_scalar_ms / fill_simd_ms : 0.0,
                 fill_hypot_ms,
                 fill_simd_ms > 0.0 ? fill_hypot_ms / fill_simd_ms : 0.0,
                 row_count, row_scalar_ms, row_simd_ms,
                 row_simd_ms > 0.0 ? row_scalar_ms / row_simd_ms : 0.0,
                 row_hypot_ms,
                 row_simd_ms > 0.0 ? row_hypot_ms / row_simd_ms : 0.0,
                 probe_scalar_ms, probe_simd_ms,
                 probe_simd_ms > 0.0 ? probe_scalar_ms / probe_simd_ms : 0.0,
                 solve_mode, solve_scalar_ms, solve_simd_ms, solve_speedup,
                 solve_scalar_length, solve_simd_length, tour_delta_pct);
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

  // The exactness gate: both solve arms computed every distance as
  // sqrt(squared_norm), so the tours must agree. A >1% divergence means a
  // backend broke the bit-exactness contract.
  if (std::abs(tour_delta_pct) > 1.0) {
    std::fprintf(stderr,
                 "FAIL: simd/scalar tour lengths diverge by %+.4f%% "
                 "(> 1%% bound)\n",
                 tour_delta_pct);
    return 1;
  }
  return 0;
}
