#!/usr/bin/env python3
"""Build and run the mwcd benchmark.

    python3 mwcbench/run.py --workload cold|warm|replan --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root. Builds libmwc, mwcd and the mwcbench client in
Release mode under $CARGO_TARGET_DIR (default .bench_build), then runs
the client with the same arguments. Build output goes to stderr, so the
last line of stdout is the client's result object. Exits nonzero when
the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "mwcbench")
    out_dir = os.path.join(build_root, "runs")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "mwcbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("mwcbench: build step failed: " + " ".join(step), file=sys.stderr)
            return 1
    client = os.path.join(build_dir, "mwcbench")
    done = subprocess.run([client] + sys.argv[1:] + ["--out", out_dir])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
