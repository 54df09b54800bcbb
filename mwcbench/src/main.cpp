// mwcbench — one end-to-end benchmark for mwcd.
//
//   mwcbench --workload cold|warm|replan --seed N --seconds S --trace 0|1
//            [--size full|tiny] [--out DIR]
//
// Starts mwcd on a loopback TCP port, drives it from this process, checks
// every response and prints each metric by name with its unit. The last
// line of stdout is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same wire
// workload plus the in-process traced replay and reports the per-layer
// metrics. Exit status is nonzero when any op failed or a check did not
// hold. See README.md beside this directory's sources.
#include <cstdio>
#include <exception>
#include <set>
#include <string>
#include <thread>

#include "geom/simd.hpp"
#include "obs/obs.hpp"
#include "svc/json.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

#ifndef MWCD_PATH
#error "MWCD_PATH must name the mwcd executable"
#endif
#ifndef MWCBENCH_BUILD_TYPE
#define MWCBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using mwcbench::Outcome;
using mwc::svc::Json;

// The metric names BENCHMARK.json declares; every run must report
// exactly one of the two sets.
const std::set<std::string> kEndToEnd{
    "setup_s",        "solve_p50_ms",    "request_p50_ms", "request_tail_ms",
    "request_rps",    "service_cost_km", "round_km",       "rss_peak_mb"};

const std::set<std::string> kPerLayer{
    "svc.parse_us",         "svc.serialize_us",      "svc.cache_probe_us",
    "svc.cache_hit_ratio",  "svc.cache_evictions",   "svc.resolve_ms",
    "svc.cache_fill_ms",    "svc.queue_wait_ms",     "svc.transport_ms",
    "svc.fold_us",          "svc.handle_delta_ms",   "svc.observe_us",
    "wsn.predict_us",       "svc.push_yield",        "stream.observe_p50_ms",
    "stream.push_p50_ms",   "tsp.oracle_fill_ms",    "tsp.oracle_rows",
    "tsp.cand_build_ms",    "tsp.msf_ms",            "tsp.msf_calls",
    "tsp.msf_share",        "tsp.construct_ms",      "tsp.polish_ms",
    "tsp.polish_moves",     "sim.precost_ms",        "sim.run_ms",
    "sim.dispatches",       "sim.tour_cache_hit_ratio", "sim.first_round_ms",
    "sim.replan_round_ms",  "geom.simd_row_ratio",   "trace.coverage",
    "obs.trace_overhead_pct"};

Json host_block(const mwcbench::RunConfig& config) {
  Json host = Json::object();
  host.set("nproc",
           Json(static_cast<std::size_t>(std::thread::hardware_concurrency())));
  host.set("simd_backend", Json(mwc::geom::simd::backend()));
#if defined(__clang__)
  host.set("compiler", Json(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  host.set("compiler", Json(std::string("gcc ") + __VERSION__));
#else
  host.set("compiler", Json("unknown"));
#endif
  host.set("build_type", Json(MWCBENCH_BUILD_TYPE));
  host.set("mwc_obs", Json(MWC_OBS_ENABLED != 0));
  host.set("mwc_simd", Json(MWC_SIMD_ENABLED != 0));
  Json flags = Json::array();
  for (const auto& f : mwcbench::daemon_flags(config)) flags.push_back(Json(f));
  flags.push_back(Json("--port"));
  flags.push_back(Json("<free loopback port>"));
  host.set("mwcd_flags", std::move(flags));
  return host;
}

}  // namespace

int main(int argc, char** argv) {
  mwc::CliArgs args(argc, argv);
  mwcbench::RunConfig config;
  config.mwcd = MWCD_PATH;
  config.workload = args.get_or("workload", "");
  config.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  config.seconds = args.get_double_or("seconds", 10.0);
  config.trace = args.get_int_or("trace", 0) != 0;
  config.out_dir = args.get_or("out", ".");
  const std::string size = args.get_or("size", "full");
  if (size != "full" && size != "tiny") {
    std::fprintf(stderr, "--size must be full or tiny\n");
    return 2;
  }
  config.sizes =
      size == "tiny" ? mwcbench::tiny_sizes() : mwcbench::full_sizes();
  if (!(config.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be > 0\n");
    return 2;
  }

  Outcome out;
  try {
    if (config.workload == "cold") {
      out = mwcbench::run_cold(config);
    } else if (config.workload == "warm") {
      out = mwcbench::run_warm(config);
    } else if (config.workload == "replan") {
      out = mwcbench::run_replan(config);
    } else {
      std::fprintf(stderr, "--workload must be cold, warm or replan\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mwcbench: %s: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }

  const auto& expected = config.trace ? kPerLayer : kEndToEnd;
  std::set<std::string> reported;
  for (const auto& m : out.metrics) reported.insert(m.name);
  if (reported != expected) {
    std::fprintf(stderr, "mwcbench: %s reported the wrong metric set\n",
                 config.workload.c_str());
    return 1;
  }

  Json host = Json::object();
  host.set("host", host_block(config));
  std::printf("%s\n", host.dump().c_str());
  for (const auto& m : out.metrics)
    std::printf("%-26s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  for (const auto& note : out.notes) std::printf("%s\n", note.c_str());
  for (const auto& error : out.errors)
    std::fprintf(stderr, "failed: %s\n", error.c_str());

  const bool correct = out.failed == 0;
  Json metrics = Json::object();
  for (const auto& m : out.metrics) {
    Json entry = Json::object();
    entry.set("value", Json(m.value));
    entry.set("unit", Json(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  Json result = Json::object();
  result.set("correct", Json(correct));
  result.set("attempted", Json(static_cast<std::size_t>(out.attempted)));
  result.set("failed", Json(static_cast<std::size_t>(out.failed)));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}
