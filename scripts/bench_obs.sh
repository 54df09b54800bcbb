#!/usr/bin/env bash
# Measures the mwc::obs instrumentation overhead: builds bench/micro_obs
# twice (-DMWC_OBS=ON / OFF), runs both arms on the identical instance
# `runs` times (alternating ON and OFF), and merges the timings (+
# overhead percentages) into BENCH_obs.json.
#
# One run's overhead moves by more than the budgets between runs on a
# shared host, so every field is the median over the runs, every run's
# overhead is kept, and each budget is judged on the quartiles: "within"
# when the upper quartile is inside it, "over" when the lower quartile
# is above it, "unresolved" otherwise.
#
# Usage: scripts/bench_obs.sh [output.json] [reps] [runs]
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_obs.json}"
REPS="${2:-20}"
RUNS="${3:-10}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for obs in ON OFF; do
  dir="build-obs-$(echo "$obs" | tr '[:upper:]' '[:lower:]')"
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DMWC_OBS="$obs" \
        > /dev/null
  cmake --build "$dir" --target micro_obs -j "$(nproc)" > /dev/null
done
for run in $(seq 1 "$RUNS"); do
  for obs in on off; do
    "build-obs-$obs/bench/micro_obs" --reps "$REPS" \
        --json "$TMP/obs_${obs}_$run.json" > /dev/null
  done
done

python3 - "$TMP" "$RUNS" "$OUT" <<'EOF'
import json, statistics, sys
tmp, runs, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
on = [json.load(open(f"{tmp}/obs_on_{i}.json")) for i in range(1, runs + 1)]
off = [json.load(open(f"{tmp}/obs_off_{i}.json")) for i in range(1, runs + 1)]
assert all(r["obs_enabled"] == 1 for r in on)
assert all(r["obs_enabled"] == 0 for r in off)

def pct(a, b):
    return round((a / b - 1.0) * 100.0, 2)

def med(values):
    return round(statistics.median(values), 6)

def quartiles(values):
    s = sorted(values)
    return s[len(s) // 4], s[(3 * len(s)) // 4]

def verdict(values, budget):
    q1, q3 = quartiles(values)
    return "within" if q3 <= budget else "over" if q1 > budget else "unresolved"

tour = [pct(a["tour_ms_per_rep"], b["tour_ms_per_rep"]) for a, b in zip(on, off)]
sim = [pct(a["sim_ms_per_rep"], b["sim_ms_per_rep"]) for a, b in zip(on, off)]
# Service warm-request path, measured within the instrumented build:
# plain cache hits vs the full observability plane per request (client
# trace id + timing echo + access-log line). Separate budget because
# this arm buys wire-visible features, not just counters.
svc = [pct(a["svc_traced_us_per_req"], a["svc_plain_us_per_req"]) for a in on]
budget, svc_budget = 2.0, 3.0
merged = {
    "bench": "micro_obs",
    "n": on[0]["n"], "q": on[0]["q"], "reps": on[0]["reps"], "runs": runs,
    "tour_ms_instrumented": med([r["tour_ms_per_rep"] for r in on]),
    "tour_ms_noop": med([r["tour_ms_per_rep"] for r in off]),
    "tour_overhead_pct": round(statistics.median(tour), 2),
    "sim_ms_instrumented": med([r["sim_ms_per_rep"] for r in on]),
    "sim_ms_noop": med([r["sim_ms_per_rep"] for r in off]),
    "sim_overhead_pct": round(statistics.median(sim), 2),
    "budget_pct": budget,
    "svc_batch": on[0]["svc_batch"],
    "svc_us_plain": med([r["svc_plain_us_per_req"] for r in on]),
    "svc_us_traced": med([r["svc_traced_us_per_req"] for r in on]),
    "svc_traced_overhead_pct": round(statistics.median(svc), 2),
    "svc_budget_pct": svc_budget,
    "tour_overhead_pct_runs": tour,
    "sim_overhead_pct_runs": sim,
    "svc_traced_overhead_pct_runs": svc,
    "tour_budget": verdict(tour, budget),
    "sim_budget": verdict(sim, budget),
    "svc_budget": verdict(svc, svc_budget),
    "note": "each run's overhead = instrumented/no-op - 1 on its "
            "min-of-reps timing; fields are medians over the runs; a "
            "budget is 'within' when the upper quartile of the runs is "
            "inside it, 'over' when the lower quartile is above it, else "
            "'unresolved'; negative means the instrumented build measured "
            "faster (code-layout effects dominate the atomic costs)",
}
json.dump(merged, open(out, "w"), indent=2)
open(out, "a").write("\n")
print(f"medians over {runs} runs: tour overhead "
      f"{merged['tour_overhead_pct']}% ({merged['tour_budget']}), "
      f"sim overhead {merged['sim_overhead_pct']}% ({merged['sim_budget']}), "
      f"svc traced overhead {merged['svc_traced_overhead_pct']}% "
      f"({merged['svc_budget']}) (budgets {budget}% / {svc_budget}%)")
print(f"wrote {out}")
EOF
