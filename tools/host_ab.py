#!/usr/bin/env python3
"""Host-CPU comparison of a base commit and the work tree, side by side.

Host times drift between sessions on a shared machine, so a host-CPU gain
counts only against its parent, built and run next to it. This script does
that: it extracts the base ref with `git archive` into a temporary
directory outside the repository, then runs perfbench/run.py there and in
the work tree in alternating pairs (base first in even pairs, work tree
first in odd ones), and prints per metric the median of each side, the
change ratio work/base, the quartiles of each side, and in how many
pairs the work tree was better (lower). A gain counts when the work tree
wins at least nine pairs in ten and the medians differ by more than the
base's quartile spread.

Metrics: setup_s from --trace 0 runs, every host_* metric from --trace 1
runs (perfbench/README.md names them). All are lower-is-better except
ops_per_cpu_s, which is not compared.

Usage (from anywhere inside the repository):
  host_ab.py [--base REF] [--workload W] [--seed N] [--seconds S]
             [--pairs N] [--traces 0,1] [--keep]
  host_ab.py --selftest

Exit codes: 0 done, 1 a run failed or gave an incorrect result, 2 usage
error. Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_PY = os.path.join("perfbench", "run.py")


def side_order(pair):
    """The two sides of pair `pair`, in run order."""
    return ("base", "work") if pair % 2 == 0 else ("work", "base")


def compared_metrics(result, trace):
    """The metrics of one run.py result that the comparison reads."""
    metrics = result.get("metrics", {})
    if trace == 0:
        names = ["setup_s"]
    else:
        names = sorted(n for n in metrics if n.startswith("host_"))
    return {n: metrics[n]["value"] for n in names if n in metrics}


def quartiles(values):
    """(first, third) quartile; both the value itself for one sample."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(samples):
    """Rows (metric, base median, work median, ratio, wins, pairs, base
    quartiles, work quartiles) from samples[metric][side] = per-pair
    values, pairs aligned by index."""
    rows = []
    for name in sorted(samples):
        pairs = min(len(samples[name].get("base", [])),
                    len(samples[name].get("work", [])))
        if pairs == 0:
            continue
        base = samples[name]["base"][:pairs]
        work = samples[name]["work"][:pairs]
        base_median = statistics.median(base)
        work_median = statistics.median(work)
        ratio = work_median / base_median if base_median else float("nan")
        wins = sum(1 for b, w in zip(base, work) if w < b)
        rows.append((name, base_median, work_median, ratio, wins, pairs,
                     quartiles(base), quartiles(work)))
    return rows


def format_rows(rows):
    lines = [f"{'metric':<22} {'base':>10} {'base q1-q3':>21} {'work':>10} "
             f"{'work q1-q3':>21} {'work/base':>9} {'better':>7}"]
    for name, base, work, ratio, wins, pairs, bq, wq in rows:
        lines.append(f"{name:<22} {base:>10.5g} {bq[0]:>10.5g}-{bq[1]:<10.5g} "
                     f"{work:>10.5g} {wq[0]:>10.5g}-{wq[1]:<10.5g} "
                     f"{ratio:>9.3f} {wins:>3}/{pairs:<3}")
    return "\n".join(lines)


def last_json_line(stdout):
    for line in reversed(stdout.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line")


def run_side(root, args, trace):
    cmd = [sys.executable, os.path.join(root, RUN_PY), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"run.py failed in {root} (trace {trace})")
    result = last_json_line(proc.stdout)
    if not result.get("correct") or result.get("failed"):
        raise RuntimeError(f"incorrect result in {root}: {result}")
    return result


def extract_base(ref):
    target = tempfile.mkdtemp(prefix="host_ab_")
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", target], input=archive.stdout,
                   check=True)
    return target


def compare(args):
    traces = [int(t) for t in args.traces.split(",") if t != ""]
    if not traces or any(t not in (0, 1) for t in traces):
        print("host_ab: --traces takes 0, 1 or 0,1", file=sys.stderr)
        return 2
    base_root = extract_base(args.base)
    print(f"base {args.base} extracted to {base_root}", file=sys.stderr)
    roots = {"base": base_root, "work": ROOT}
    samples = {}
    try:
        for pair in range(args.pairs):
            for trace in traces:
                for side in side_order(pair):
                    result = run_side(roots[side], args, trace)
                    for name, value in compared_metrics(result,
                                                        trace).items():
                        samples.setdefault(name, {}).setdefault(
                            side, []).append(value)
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    except (RuntimeError, ValueError, subprocess.CalledProcessError) as err:
        print(f"host_ab: {err}", file=sys.stderr)
        return 1
    finally:
        if not args.keep:
            shutil.rmtree(base_root, ignore_errors=True)
    print(f"{args.workload} seed {args.seed}, {args.seconds} s runs, "
          f"{args.pairs} alternating pairs, base {args.base}")
    print(format_rows(summarize(samples)))
    return 0


def selftest():
    failures = 0

    def check(cond, what):
        nonlocal failures
        if not cond:
            failures += 1
            print(f"selftest: {what} failed")

    check(side_order(0) == ("base", "work"), "even pair runs base first")
    check(side_order(1) == ("work", "base"), "odd pair runs work first")
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
        "setup_s": {"value": 0.05, "unit": "s"},
        "host_payment_us": {"value": 90.0, "unit": "us"},
        "host_new_order_us": {"value": 200.0, "unit": "us"},
        "ops_per_cpu_s": {"value": 4000.0, "unit": "1/s"}}}
    check(compared_metrics(result, 0) == {"setup_s": 0.05},
          "trace 0 reads setup_s only")
    check(list(compared_metrics(result, 1)) ==
          ["host_new_order_us", "host_payment_us"],
          "trace 1 reads every host_* metric")
    check(last_json_line("building...\n{\"a\": 1}\n") == {"a": 1},
          "the result is the last JSON line")
    rows = summarize({"setup_s": {"base": [0.070, 0.072, 0.071],
                                  "work": [0.050, 0.052, 0.073]}})
    name, base, work, ratio, wins, pairs, base_q, _ = rows[0]
    check(name == "setup_s" and base == 0.071 and work == 0.052,
          "medians per side")
    check(abs(ratio - 0.052 / 0.071) < 1e-12, "ratio is work over base")
    check(wins == 2 and pairs == 3, "wins count pairs the work tree won")
    check(base_q[0] <= base <= base_q[1], "the base median lies within "
          "its quartiles")
    check(summarize({"x": {"base": [1.0]}}) == [], "a one-sided metric is "
          "skipped")
    check("setup_s" in format_rows(rows), "the table names the metric")
    print("selftest:", "PASSED" if failures == 0 else f"{failures} FAILURES")
    return failures == 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Side-by-side host-CPU comparison of a base commit and "
                    "the work tree through perfbench/run.py.")
    parser.add_argument("--base", default="HEAD",
                        help="git ref to compare against (default HEAD)")
    parser.add_argument("--workload", default="tpcc_write",
                        choices=("tpcc_write", "tpcc_read", "chbench"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traces", default="0,1",
                        help="perfbench traces to run: 0, 1 or 0,1")
    parser.add_argument("--keep", action="store_true",
                        help="keep the extracted base tree and its build")
    parser.add_argument("--selftest", action="store_true",
                        help="check this script's own logic and exit")
    args = parser.parse_args(argv)
    if args.selftest:
        return 0 if selftest() else 2
    if args.pairs < 1 or args.seconds <= 0:
        print("host_ab: --pairs and --seconds must be positive",
              file=sys.stderr)
        return 2
    return compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
