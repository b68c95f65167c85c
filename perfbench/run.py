#!/usr/bin/env python3
"""Repository benchmark: builds the harness and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tpcc_write --seed 1 --seconds 10 \\
        --trace 0

On first use this configures and builds perfbench/ (the Tell library from
src/ plus tell_perfbench.cc) into .bench_build/perfbench with CMake; later
runs only rebuild what changed. It then runs the harness, checks its result
and prints it as the last line of stdout. Build and progress output go to
stderr. It exits non-zero without printing a result when the sources are
missing, the build fails or the harness gives no valid result.

Workloads: tpcc_write, tpcc_read, chbench (see perfbench/README.md).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tell_perfbench")
WORKLOADS = ("tpcc_write", "tpcc_read", "chbench")
BUILD_TIMEOUT_S = 840
# The harness ends its round loop after at most 120 s; this is a backstop.
RUN_TIMEOUT_S = 165


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the Tell sources (src/) are not next to perfbench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append([cmake, "--build", BUILD_DIR, "--target", "tell_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as err:
            die(f"build failed: {err}")


def declared_units(trace):
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    """Rejects a malformed result; marks an implausible one incorrect."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        die("harness result has the wrong keys")
    if not isinstance(result["correct"], bool):
        die("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            die(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        die("nothing was attempted")
    metrics = result["metrics"]
    units = {name: m.get("unit") for name, m in metrics.items()}
    declared = declared_units(trace)
    if declared is not None and units != declared:
        die("harness metrics differ from BENCHMARK.json")
    for name, m in metrics.items():
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            die(f"metric {name} is not a finite number")
        # End-to-end metrics are rates and times of work that happened.
        if not trace and value <= 0:
            print(f"perfbench: metric {name} is {value}", file=sys.stderr)
            result["correct"] = False
    if result["failed"] > 0:
        result["correct"] = False


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("the harness timed out")
    if proc.returncode != 0:
        die(f"the harness exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("the harness printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("the harness result is not JSON")
    check(result, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
