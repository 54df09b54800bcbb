#!/usr/bin/env bash
# Records the spatial-index design datum (DESIGN.md): kd-tree
# nearest-neighbour and k-NN query times on uniform and clustered
# deployments, plus the SoA brute-force baseline, at n in {1k, 10k,
# 100k}. Merges the per-size JSON outputs of bench/micro_spatial into
# BENCH_spatial.json and validates the --metrics-out sidecar (geom.simd.*
# counters) with scripts/validate_metrics.py. micro_spatial itself exits
# nonzero if the kd-tree ever disagrees with the brute-force scan on a
# k-NN list, so a passing run also re-pins the tie-break contract at
# bench scale.
#
# Usage: scripts/bench_spatial.sh [output.json] [queries]
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_spatial.json}"
QUERIES="${2:-2048}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build --target micro_spatial -j "$(nproc)" > /dev/null

SIZES=(1000 10000 100000)
for n in "${SIZES[@]}"; do
  ./build/bench/micro_spatial --n "$n" --queries "$QUERIES" \
      --json "$TMP/spatial_$n.json" --metrics-out "$TMP/metrics_$n.json"
  python3 scripts/validate_metrics.py "$TMP/metrics_$n.json"
done

python3 - "$OUT" "$TMP" "${SIZES[@]}" <<'EOF'
import json, sys
out, tmp, sizes = sys.argv[1], sys.argv[2], sys.argv[3:]
points = [json.load(open(f"{tmp}/spatial_{n}.json")) for n in sizes]
merged = {
    "bench": "micro_spatial",
    "queries": points[0]["queries"], "k": points[0]["k"],
    "backend": points[0]["backend"],
    "points": points,
    "note": "per-query microseconds; brute = one geom::simd "
            "squared-distance row over the SoA coordinates plus a "
            "scalar argmin (linear in n, index-free). Every k-NN "
            "query is cross-checked kd-tree vs brute force for "
            "identical (index, distance) lists including ties.",
}
json.dump(merged, open(out, "w"), indent=2)
open(out, "a").write("\n")
for p in points:
    print(f"n={p['n']:>6}: nn kd {p['kd_nn_us']:7.3f}us "
          f"brute {p['brute_nn_us']:9.3f}us "
          f"clustered kd {p['kd_nn_clustered_us']:7.3f}us; "
          f"knn kd {p['kd_knn_us']:7.3f}us")
print(f"wrote {out}")
EOF
