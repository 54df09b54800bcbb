// Micro-benchmark for the shared distance oracle and the parallel batched
// tour-costing pipeline.
//
//   ./micro_oracle [--n 800] [--q 10] [--reps 5] [--threads 0]
//                  [--max-matrix-gb 8] [--json PATH]
//
// Three measurements over one random q-rooted instance:
//   * cold   — q_rooted_tsp through direct geometry (every probe pays a
//              hypot), the pre-oracle implementation's path;
//   * cached — the same construction through a warm DistanceOracle
//              (probes are row-major array loads);
//   * batch  — the K+1 cumulative dispatch classes costed back-to-back:
//              serially on direct geometry vs concurrently on a
//              ThreadPool over one fresh shared oracle (the
//              Simulator::precost_dispatches shape).
//
// With --json the results (timings in ms plus speedups) are written as a
// single JSON object; scripts/reproduce_all.sh stores it as
// BENCH_oracle.json.
//
// Above --max-matrix-gb the O(n^2) oracle cannot be materialized (n =
// 100k would need ~80 GiB), so the cached/batch arms are skipped and
// only the direct-geometry cold arm runs — the large-n grid cell still
// completes instead of OOMing.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "tsp/oracle.hpp"
#include "tsp/qrooted.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  using namespace mwc;
  CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int_or("n", 800));
  const auto q = static_cast<std::size_t>(args.get_int_or("q", 10));
  const auto reps = static_cast<std::size_t>(args.get_int_or("reps", 5));
  const auto threads =
      static_cast<std::size_t>(args.get_int_or("threads", 0));
  const auto max_matrix_gb =
      static_cast<double>(args.get_int_or("max-matrix-gb", 8));
  const std::string json_path = args.get_or("json", "");

  const auto instance = random_instance(n, q, 20140917);
  const double matrix_gb = static_cast<double>(n + q) *
                           static_cast<double>(n + q) * 8.0 /
                           (1024.0 * 1024.0 * 1024.0);
  const bool matrix_fits = matrix_gb <= max_matrix_gb;
  std::vector<std::size_t> all_ids(n);
  for (std::size_t i = 0; i < n; ++i) all_ids[i] = i;
  double checksum = 0.0;  // defeats dead-code elimination

  // Per-rep timings; the minimum is the noise-robust estimate (scheduler
  // interference only ever adds time), the mean is reported alongside.
  std::vector<double> cold_times(reps), cached_times(reps);
  Timer timer;

  // Cold: the pre-oracle dispatch-costing path — rebuild the
  // QRootedInstance (point copies), construct through direct geometry,
  // and take per-depot lengths off a materialized point copy.
  for (std::size_t r = 0; r < reps; ++r) {
    timer.reset();
    tsp::QRootedInstance round;
    round.depots = instance.depots;
    round.sensors.reserve(all_ids.size());
    for (std::size_t id : all_ids)
      round.sensors.push_back(instance.sensors[id]);
    const auto tours = tsp::q_rooted_tsp(round);
    const auto points = round.points().materialize();
    for (const auto& tour : tours.tours) checksum += tour.length(points);
    cold_times[r] = timer.elapsed_ms();
  }

  // Cached: the oracle-backed dispatch-costing path over one shared
  // oracle; the first costing pays the row materialization (reported
  // separately), the repeats run warm. Skipped above the matrix cap —
  // there the cold/direct arm above is the whole measurement.
  double warmup_ms = 0.0;
  if (matrix_fits) {
    const tsp::DistanceOracle oracle(instance.depots, instance.sensors);
    timer.reset();
    checksum +=
        tsp::q_rooted_tsp(oracle.dispatch_view(all_ids), q).total_length;
    warmup_ms = timer.elapsed_ms();
    for (std::size_t r = 0; r < reps; ++r) {
      timer.reset();
      const auto view = oracle.dispatch_view(all_ids);
      const auto tours = tsp::q_rooted_tsp(view, q);
      for (const auto& tour : tours.tours) checksum += tour.length_with(view);
      cached_times[r] = timer.elapsed_ms();
    }
  } else {
    cached_times.assign(reps, 0.0);
  }

  const double cold_ms = std::ranges::min(cold_times);
  const double cached_ms = std::ranges::min(cached_times);
  const double cold_mean_ms = mean_of(cold_times);
  const double cached_mean_ms = mean_of(cached_times);

  // Batch: K+1 = 8 cumulative dispatch classes (prefixes of the sensor
  // list, doubling like MinTotalDistance's V_0 ⊆ V_0∪V_1 ⊆ ...).
  std::vector<std::vector<std::size_t>> classes;
  for (std::size_t size = (n + 127) / 128; size <= n; size *= 2) {
    std::vector<std::size_t> ids;
    ids.reserve(size);
    for (std::size_t i = 0; i < size && i < n; ++i) ids.push_back(i);
    classes.push_back(std::move(ids));
    if (classes.back().size() == n) break;
  }

  ThreadPool pool(threads);
  double batch_cold_ms = 0.0;
  double batch_parallel_ms = 0.0;
  if (matrix_fits) {
    timer.reset();
    for (const auto& ids : classes) {
      tsp::QRootedInstance sub;
      sub.depots = instance.depots;
      sub.sensors.reserve(ids.size());
      for (std::size_t id : ids) sub.sensors.push_back(instance.sensors[id]);
      checksum += tsp::q_rooted_tsp(sub.distances(), q).total_length;
    }
    batch_cold_ms = timer.elapsed_ms();

    const tsp::DistanceOracle shared(instance.depots, instance.sensors);
    timer.reset();
    std::vector<double> totals(classes.size());
    parallel_for(pool, 0, classes.size(), [&](std::size_t k) {
      totals[k] =
          tsp::q_rooted_tsp(shared.dispatch_view(classes[k]), q).total_length;
    });
    batch_parallel_ms = timer.elapsed_ms();
    for (double t : totals) checksum += t;
  }

  const double speedup_cached = cached_ms > 0.0 ? cold_ms / cached_ms : 0.0;
  const double speedup_parallel =
      batch_parallel_ms > 0.0 ? batch_cold_ms / batch_parallel_ms : 0.0;

  std::printf("micro_oracle: n=%zu q=%zu reps=%zu threads=%zu\n", n, q, reps,
              pool.size());
  std::printf("  cold           %9.3f ms/rep (min; mean %.3f)\n", cold_ms,
              cold_mean_ms);
  if (matrix_fits) {
    std::printf("  oracle warmup  %9.3f ms (first touch)\n", warmup_ms);
    std::printf(
        "  cached         %9.3f ms/rep (min; mean %.3f)   (%.2fx vs cold)\n",
        cached_ms, cached_mean_ms, speedup_cached);
    std::printf("  batch cold     %9.3f ms for %zu classes\n", batch_cold_ms,
                classes.size());
    std::printf("  batch parallel %9.3f ms for %zu classes (%.2fx)\n",
                batch_parallel_ms, classes.size(), speedup_parallel);
  } else {
    std::printf("  cached/batch   skipped (matrix %.1f GiB > cap %.1f GiB; "
                "direct geometry only)\n",
                matrix_gb, max_matrix_gb);
  }
  std::printf("  (checksum %.3f)\n", checksum);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_oracle\",\n"
                 "  \"n\": %zu,\n"
                 "  \"q\": %zu,\n"
                 "  \"reps\": %zu,\n"
                 "  \"threads\": %zu,\n"
                 "  \"matrix_fits\": %s,\n"
                 "  \"batch_classes\": %zu,\n"
                 "  \"cold_ms_per_rep\": %.6f,\n"
                 "  \"cold_ms_per_rep_mean\": %.6f,\n"
                 "  \"oracle_warmup_ms\": %.6f,\n"
                 "  \"cached_ms_per_rep\": %.6f,\n"
                 "  \"cached_ms_per_rep_mean\": %.6f,\n"
                 "  \"speedup_cached_vs_cold\": %.3f,\n"
                 "  \"batch_cold_ms\": %.6f,\n"
                 "  \"batch_parallel_ms\": %.6f,\n"
                 "  \"speedup_parallel_batch\": %.3f\n"
                 "}\n",
                 n, q, reps, pool.size(), matrix_fits ? "true" : "false",
                 classes.size(), cold_ms,
                 cold_mean_ms, warmup_ms, cached_ms, cached_mean_ms,
                 speedup_cached, batch_cold_ms, batch_parallel_ms,
                 speedup_parallel);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
