// micro_delta — incremental re-planning benchmark (mwc.svc.v2).
//
// For every instance size in --grid, measures
//   * cold p50   — handle_request on a fresh topology seed per repeat
//     (full resolve + solve + horizon simulation, no cache), and
//   * delta p50  — handle_delta against the cached base plan, one
//     distinct patch per repeat (derived-plan cache never hit),
// for each patch size in --patches. The headline number is the
// cold/delta p50 ratio; the v2 redesign targets >= 10x at n=2000 with a
// single-sensor patch.
//
// Flags: --grid 200,800,2000, --patches 1,4,16, --q 5, --horizon 200,
//        --cold 5, --reps 24, --seed 1, --improve (default true),
//        --json FILE
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "svc/delta.hpp"
#include "svc/engine.hpp"
#include "svc/json.hpp"
#include "svc/plan_cache.hpp"
#include "svc/wire.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

std::vector<std::size_t> parse_list(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const auto comma = spec.find(',', pos);
    out.push_back(static_cast<std::size_t>(
        std::stoul(spec.substr(pos, comma - pos))));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mwc::CliArgs args(argc, argv);

  const std::vector<std::size_t> grid =
      parse_list(args.get_or("grid", "200,800,2000"));
  const std::vector<std::size_t> patches =
      parse_list(args.get_or("patches", "1,4,16"));
  const std::size_t q = static_cast<std::size_t>(args.get_int_or("q", 5));
  const double horizon = args.get_double_or("horizon", 200.0);
  const std::size_t cold_reps =
      static_cast<std::size_t>(args.get_int_or("cold", 5));
  const std::size_t delta_reps =
      static_cast<std::size_t>(args.get_int_or("reps", 24));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const bool improve = args.get_bool_or("improve", true);
  const double field = 1000.0;

  bool failed = false;
  mwc::svc::Json rows = mwc::svc::Json::array();
  for (const std::size_t n : grid) {
    const auto request_for = [&](const std::string& id,
                                 std::uint64_t topology_seed) {
      return mwc::svc::RequestBuilder(id)
          .preset(n, q, field, topology_seed)
          .cycle_values(std::vector<double>(n, 5.0))
          .horizon(horizon)
          .improve(improve)
          .build();
    };

    // Cold reference: distinct topologies, no cache in sight.
    std::vector<double> cold_ms;
    for (std::size_t r = 0; r < cold_reps; ++r) {
      const auto start = Clock::now();
      const mwc::svc::Response response =
          handle_request(request_for("cold", seed + 1000 + r), nullptr);
      cold_ms.push_back(std::chrono::duration<double, std::milli>(
                            Clock::now() - start)
                            .count());
      if (!response.ok) {
        std::fprintf(stderr, "cold solve failed: %s\n",
                     response.message.c_str());
        failed = true;
      }
    }
    std::sort(cold_ms.begin(), cold_ms.end());
    const double cold_p50 =
        cold_ms.empty() ? 0.0 : mwc::quantile_sorted(cold_ms, 0.5);

    // Base plan for the delta stream.
    mwc::svc::PlanCache cache(1024);
    const mwc::svc::Response base =
        handle_request(request_for("base", seed), &cache);
    if (!base.ok) {
      std::fprintf(stderr, "base solve failed: %s\n", base.message.c_str());
      return 1;
    }

    for (const std::size_t patch_size : patches) {
      std::vector<double> delta_ms;
      std::size_t errors = 0;
      for (std::size_t r = 0; r < delta_reps; ++r) {
        mwc::svc::DeltaBuilder builder("d", base.plan->fingerprint);
        for (std::size_t k = 0; k < patch_size; ++k) {
          const double jitter = static_cast<double>(r * patch_size + k);
          builder.move_sensor(
              (r * 131 + k * 37 + 11) % n,
              {std::min(field, 40.0 + 13.0 * jitter -
                                   field * std::floor(13.0 * jitter / field)),
               std::min(field, 70.0 + 29.0 * jitter -
                                   field * std::floor(29.0 * jitter / field))});
        }
        const auto start = Clock::now();
        const mwc::svc::Response response =
            handle_delta(builder.build(), &cache);
        delta_ms.push_back(std::chrono::duration<double, std::milli>(
                               Clock::now() - start)
                               .count());
        if (!response.ok) ++errors;
      }
      failed = failed || errors > 0;
      std::sort(delta_ms.begin(), delta_ms.end());
      const double delta_p50 =
          delta_ms.empty() ? 0.0 : mwc::quantile_sorted(delta_ms, 0.5);
      const double speedup = delta_p50 > 0.0 ? cold_p50 / delta_p50 : 0.0;
      std::printf("n=%-5zu patch=%-3zu cold p50 %9.3f ms  delta p50 "
                  "%8.3f ms  speedup %7.1fx  (%zu errors)\n",
                  n, patch_size, cold_p50, delta_p50, speedup, errors);

      mwc::svc::Json row = mwc::svc::Json::object();
      row.set("n", mwc::svc::Json(n));
      row.set("q", mwc::svc::Json(q));
      row.set("patch_ops", mwc::svc::Json(patch_size));
      row.set("cold_p50_ms", mwc::svc::Json(cold_p50));
      row.set("delta_p50_ms", mwc::svc::Json(delta_p50));
      row.set("speedup_p50", mwc::svc::Json(speedup));
      row.set("errors", mwc::svc::Json(errors));
      rows.push_back(std::move(row));
    }
  }

  if (const auto json_path = args.get("json")) {
    mwc::svc::Json doc = mwc::svc::Json::object();
    doc.set("bench", mwc::svc::Json("micro_delta"));
    doc.set("horizon", mwc::svc::Json(horizon));
    doc.set("improve", mwc::svc::Json(improve));
    doc.set("cold_reps", mwc::svc::Json(cold_reps));
    doc.set("delta_reps", mwc::svc::Json(delta_reps));
    doc.set("rows", std::move(rows));
    std::FILE* f = std::fopen(json_path->c_str(), "w");
    if (f == nullptr) {
      std::perror("fopen --json");
      return 1;
    }
    const std::string text = doc.dump() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return failed ? 1 : 0;
}
