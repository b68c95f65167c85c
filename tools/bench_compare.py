#!/usr/bin/env python3
"""Compare two BENCH_*.json artifacts and flag regressions.

Takes a baseline artifact and a current artifact for the same bench
(schema v1, see tools/check_bench_json.py and docs/BENCHMARKS.md), matches
runs by label, and diffs every derived metric the two runs share. A metric
is a regression when it moves in its bad direction by more than the
threshold percentage.

Direction is inferred from the metric name. Rate-shaped names ("_tps",
"_per_sec", "tpmc", "hit_rate") are higher-is-better and take precedence —
a wall-clock rate like wall_tps must flag when it *drops*, even though
other wall_* fields are durations. Otherwise anything that reads like a
latency, abort or cost ("latency", "resp", "abort", "_ms", "_ns", "_us",
"requests_per_txn", "wall_seconds") is lower-is-better; everything else
(throughput-like: tpmc, tps, speedups) is higher-is-better. Override per
metric with --lower-is-better / --higher-is-better.

Usage:
  bench_compare.py BASELINE.json CURRENT.json [--threshold PCT]
  bench_compare.py --selftest

Exit codes: 0 no regression, 1 regression found, 2 usage/artifact error.
Standard library only.
"""

import argparse
import json
import sys

LOWER_IS_BETTER_HINTS = (
    "latency",
    "resp",
    "abort",
    "_ms",
    "_ns",
    "_us",
    "requests_per_txn",
    "wall_seconds",
    # Chaos-recovery fields (bench/chaos_recovery.cc): longer leader
    # outages and deeper migration throughput dips are regressions.
    # recovery_time_ms also matches "_ms", but it is named here so the
    # direction survives a producer-side rename of the unit suffix.
    "recovery_time",
    "dip",
    # Storage round trips per transaction type (table4's round probe,
    # derived.rounds_<type>): fewer rounds is the gain.
    "rounds_",
)

# Checked before the lower-is-better hints: a rate is higher-is-better no
# matter what else its name contains. This is what keeps wall-clock rates
# (wall_tps, wall_ops_per_sec) flagged on *drops* while wall_seconds stays
# flagged on rises.
HIGHER_IS_BETTER_HINTS = (
    "_tps",
    "_per_sec",
    "tpmc",
    "hit_rate",
    "speedup",
    # OLAP query rate of the hybrid suite (bench/hybrid_chbench.cc): fewer
    # analytical queries per second is a regression.
    "_qps",
)


def is_lower_better(name, force_lower, force_higher):
    if name in force_lower:
        return True
    if name in force_higher:
        return False
    if any(hint in name for hint in HIGHER_IS_BETTER_HINTS):
        return False
    return any(hint in name for hint in LOWER_IS_BETTER_HINTS)


def load_runs(path):
    """Return (bench_name, {label: derived}) for a schema-v1 artifact."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema_version") != 1:
        raise ValueError(f"{path}: unsupported schema_version "
                         f"{doc.get('schema_version')!r}")
    runs = {}
    for run in doc.get("runs", []):
        runs[run["label"]] = run.get("derived", {})
    return doc.get("bench", "?"), runs


def compare(baseline_path, current_path, threshold_pct, force_lower,
            force_higher, out=sys.stdout):
    """Diff the two artifacts; return the list of regression lines."""
    base_bench, base_runs = load_runs(baseline_path)
    cur_bench, cur_runs = load_runs(current_path)
    if base_bench != cur_bench:
        print(f"warning: comparing different benches "
              f"({base_bench!r} vs {cur_bench!r})", file=out)

    shared_labels = [label for label in base_runs if label in cur_runs]
    if not shared_labels:
        raise ValueError("no shared run labels between the two artifacts")
    for label in set(base_runs) ^ set(cur_runs):
        print(f"note: run {label!r} present in only one artifact, skipped",
              file=out)

    regressions = []
    for label in shared_labels:
        base, cur = base_runs[label], cur_runs[label]
        shared_metrics = sorted(set(base) & set(cur))
        if not shared_metrics:
            continue
        print(f"run {label!r}:", file=out)
        for metric in shared_metrics:
            old, new = float(base[metric]), float(cur[metric])
            if old == 0.0:
                delta_pct = 0.0 if new == 0.0 else float("inf")
            else:
                delta_pct = (new - old) / abs(old) * 100.0
            lower_better = is_lower_better(metric, force_lower, force_higher)
            bad = delta_pct > threshold_pct if lower_better \
                else delta_pct < -threshold_pct
            arrow = "lower=better" if lower_better else "higher=better"
            flag = "  REGRESSION" if bad else ""
            print(f"  {metric:<28} {old:>14.4f} -> {new:>14.4f}  "
                  f"({delta_pct:+8.2f}%, {arrow}){flag}", file=out)
            if bad:
                regressions.append(
                    f"{label}/{metric}: {old:.4f} -> {new:.4f} "
                    f"({delta_pct:+.2f}%)")
    return regressions


def selftest():
    import io
    import os
    import tempfile

    def artifact(tpmc, resp_ms, wall_tps=None, wall_seconds=None,
                 recovery_time_ms=None, migration_dip_pct=None,
                 cache_hit_rate=None, olap_qps=None, rounds_stock_level=None):
        derived = {"tpmc": tpmc, "resp_ms": resp_ms}
        if rounds_stock_level is not None:
            derived["rounds_stock_level"] = rounds_stock_level
        if wall_tps is not None:
            derived["wall_tps"] = wall_tps
        if wall_seconds is not None:
            derived["wall_seconds"] = wall_seconds
        if cache_hit_rate is not None:
            derived["cache_hit_rate"] = cache_hit_rate
        if olap_qps is not None:
            derived["olap_qps"] = olap_qps
        if recovery_time_ms is not None:
            derived["recovery_time_ms"] = recovery_time_ms
        if migration_dip_pct is not None:
            derived["migration_dip_pct"] = migration_dip_pct
        return {
            "schema_version": 1,
            "bench": "selftest",
            "config": {},
            "runs": [{
                "label": "run",
                "derived": derived,
                "counters": {}, "gauges": {}, "histograms": {},
            }],
        }

    cases = [
        # (baseline, current, threshold, expect_regressions)
        (artifact(1000, 1.0), artifact(1010, 0.9), 10.0, 0),   # improved
        (artifact(1000, 1.0), artifact(700, 1.0), 10.0, 1),    # tpmc down 30%
        (artifact(1000, 1.0), artifact(1000, 1.5), 10.0, 1),   # resp up 50%
        (artifact(1000, 1.0), artifact(950, 1.05), 10.0, 0),   # within 10%
        (artifact(1000, 1.0), artifact(700, 1.5), 10.0, 2),    # both regress
        # wall_tps is a rate: a drop must flag even though other wall_*
        # names (wall_seconds) are lower-is-better durations.
        (artifact(1000, 1.0, wall_tps=500.0, wall_seconds=2.0),
         artifact(1000, 1.0, wall_tps=300.0, wall_seconds=2.0), 10.0, 1),
        # ...and a wall_tps rise (wall_seconds falling with it) is clean.
        (artifact(1000, 1.0, wall_tps=500.0, wall_seconds=2.0),
         artifact(1000, 1.0, wall_tps=800.0, wall_seconds=1.2), 10.0, 0),
        # Chaos-recovery fields are lower-is-better: a longer leader
        # outage and a deeper migration dip both flag...
        (artifact(1000, 1.0, recovery_time_ms=0.4, migration_dip_pct=5.0),
         artifact(1000, 1.0, recovery_time_ms=0.9, migration_dip_pct=25.0),
         10.0, 2),
        # ...and a faster recovery with a shallower dip is clean.
        (artifact(1000, 1.0, recovery_time_ms=0.9, migration_dip_pct=25.0),
         artifact(1000, 1.0, recovery_time_ms=0.4, migration_dip_pct=5.0),
         10.0, 0),
        # cache_hit_rate is a rate (higher-is-better): a collapsing client
        # record cache flags...
        (artifact(1000, 1.0, cache_hit_rate=0.8),
         artifact(1000, 1.0, cache_hit_rate=0.4), 10.0, 1),
        # ...and a cache warming up is clean.
        (artifact(1000, 1.0, cache_hit_rate=0.4),
         artifact(1000, 1.0, cache_hit_rate=0.8), 10.0, 0),
        # olap_qps is a rate (higher-is-better): the hybrid suite's OLAP
        # throughput collapsing flags...
        (artifact(1000, 1.0, olap_qps=12.0),
         artifact(1000, 1.0, olap_qps=6.0), 10.0, 1),
        # ...and more analytical queries per second is clean.
        (artifact(1000, 1.0, olap_qps=6.0),
         artifact(1000, 1.0, olap_qps=12.0), 10.0, 0),
        # Round counts are lower-is-better: a transaction type paying more
        # storage rounds flags...
        (artifact(1000, 1.0, rounds_stock_level=4.0),
         artifact(1000, 1.0, rounds_stock_level=6.0), 10.0, 1),
        # ...and a round cut is clean.
        (artifact(1000, 1.0, rounds_stock_level=6.0),
         artifact(1000, 1.0, rounds_stock_level=4.0), 10.0, 0),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (base, cur, threshold, expected) in enumerate(cases):
            base_path = os.path.join(tmp, f"base{i}.json")
            cur_path = os.path.join(tmp, f"cur{i}.json")
            with open(base_path, "w", encoding="utf-8") as handle:
                json.dump(base, handle)
            with open(cur_path, "w", encoding="utf-8") as handle:
                json.dump(cur, handle)
            got = len(compare(base_path, cur_path, threshold, set(), set(),
                              out=io.StringIO()))
            status = "ok" if got == expected else "FAIL"
            if got != expected:
                failures += 1
            print(f"selftest case {i}: expected {expected} regressions, "
                  f"got {got} [{status}]")
        # Direction override flips the verdict for a throughput-like name.
        base_path = os.path.join(tmp, "base_dir.json")
        cur_path = os.path.join(tmp, "cur_dir.json")
        with open(base_path, "w", encoding="utf-8") as handle:
            json.dump(artifact(1000, 1.0), handle)
        with open(cur_path, "w", encoding="utf-8") as handle:
            json.dump(artifact(1500, 1.0), handle)
        got = len(compare(base_path, cur_path, 10.0, {"tpmc"}, set(),
                          out=io.StringIO()))
        status = "ok" if got == 1 else "FAIL"
        if got != 1:
            failures += 1
        print(f"selftest case override: expected 1 regression, got {got} "
              f"[{status}]")
    print("selftest:", "PASSED" if failures == 0 else f"{failures} FAILURES")
    return failures == 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_*.json artifacts (schema v1).")
    parser.add_argument("baseline", nargs="?", help="baseline artifact")
    parser.add_argument("current", nargs="?", help="current artifact")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent (default 10)")
    parser.add_argument("--lower-is-better", action="append", default=[],
                        metavar="METRIC",
                        help="force a metric's good direction to 'lower'")
    parser.add_argument("--higher-is-better", action="append", default=[],
                        metavar="METRIC",
                        help="force a metric's good direction to 'higher'")
    parser.add_argument("--selftest", action="store_true",
                        help="exercise the comparator itself and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return 0 if selftest() else 2
    if not args.baseline or not args.current:
        parser.error("BASELINE and CURRENT artifacts are required")

    try:
        regressions = compare(args.baseline, args.current, args.threshold,
                              set(args.lower_is_better),
                              set(args.higher_is_better))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.1f}%:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
