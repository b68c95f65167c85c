#!/usr/bin/env python3
"""Validate BENCH_*.json bench artifacts against schema v1.

Schema v1 (produced by obs::BenchReport, documented in
src/obs/bench_export.h and DESIGN.md "Observability"):

  { "schema_version": 1,
    "bench": "<name>",
    "config": { "<key>": "<string>", ... },
    "runs": [ { "label": "<string>",
                "derived":    { "<key>": number, ... },
                "counters":   { "<metric>": integer>=0, ... },
                "gauges":     { "<metric>": integer>=0, ... },
                "histograms": { "<metric>": {
                    "unit": "<string>", "count": int, "min": int,
                    "max": int, "mean": num, "stddev": num,
                    "p50": int, "p95": int, "p99": int }, ... },
                "nodes":      { "<node>": { "<counter>": int } } },  # optional
              ... ] }

Usage:
  check_bench_json.py FILE...            validate artifact files
  check_bench_json.py --run BIN --workdir DIR
                                         run a bench binary in DIR, then
                                         validate every BENCH_*.json there
  check_bench_json.py --selftest         exercise the validator itself

Exit code 0 when every artifact is valid, 1 otherwise. No third-party
dependencies — standard library only.
"""

import glob
import json
import math
import os
import subprocess
import sys

HISTOGRAM_KEYS = {
    "unit": str,
    "count": int,
    "min": int,
    "max": int,
    "mean": (int, float),
    "stddev": (int, float),
    "p50": int,
    "p95": int,
    "p99": int,
}


def _fail(errors, path, msg):
    errors.append(f"{path}: {msg}")


def _check_str_map(errors, path, obj, value_types, what):
    if not isinstance(obj, dict):
        _fail(errors, path, f"{what} must be an object, got {type(obj).__name__}")
        return
    for key, value in obj.items():
        if not isinstance(key, str) or not key:
            _fail(errors, path, f"{what} has a non-string/empty key: {key!r}")
        if not isinstance(value, value_types) or isinstance(value, bool):
            _fail(errors, path,
                  f"{what}[{key!r}] must be {value_types}, got {value!r}")


def _check_histogram(errors, path, name, hist):
    if not isinstance(hist, dict):
        _fail(errors, path, f"histograms[{name!r}] must be an object")
        return
    for key, expected in HISTOGRAM_KEYS.items():
        if key not in hist:
            _fail(errors, path, f"histograms[{name!r}] missing {key!r}")
            continue
        value = hist[key]
        if isinstance(value, bool) or not isinstance(value, expected):
            _fail(errors, path,
                  f"histograms[{name!r}][{key!r}] must be {expected}, "
                  f"got {value!r}")
    extra = set(hist) - set(HISTOGRAM_KEYS)
    if extra:
        _fail(errors, path, f"histograms[{name!r}] has unknown keys {sorted(extra)}")
    if isinstance(hist.get("count"), int) and hist["count"] > 0:
        lo, hi = hist.get("min"), hist.get("max")
        if isinstance(lo, int) and isinstance(hi, int) and lo > hi:
            _fail(errors, path, f"histograms[{name!r}]: min {lo} > max {hi}")
        for a, b in [("min", "p50"), ("p50", "p95"), ("p95", "p99"),
                     ("p99", "max")]:
            va, vb = hist.get(a), hist.get(b)
            if isinstance(va, int) and isinstance(vb, int) and va > vb:
                _fail(errors, path,
                      f"histograms[{name!r}]: {a} {va} > {b} {vb}")


def _check_wall_clock(errors, path, derived):
    """Wall-clock derived fields: benches that report real elapsed time must
    report it coherently. wall_seconds must be a positive finite duration,
    and every wall-clock rate (wall_tps, wall_ops_per_sec, ...) must be
    finite, non-negative and accompanied by a usable wall_seconds it was
    computed from. Guards the "division guard emits inf" producer bug:
    Python's json.load happily parses the non-standard Infinity/NaN literals,
    and a rate of inf with wall_seconds == 0 used to sail through the
    plain < 0 comparison."""
    if not isinstance(derived, dict):
        return
    wall_seconds = derived.get("wall_seconds")
    wall_seconds_usable = False
    if wall_seconds is not None:
        if isinstance(wall_seconds, bool) or \
                not isinstance(wall_seconds, (int, float)):
            return  # type error already reported by _check_str_map
        if not math.isfinite(wall_seconds):
            _fail(errors, path,
                  f"derived['wall_seconds'] must be finite, "
                  f"got {wall_seconds!r}")
        elif wall_seconds <= 0:
            _fail(errors, path,
                  f"derived['wall_seconds'] must be > 0, got {wall_seconds!r}")
        else:
            wall_seconds_usable = True
    for rate_key in ("wall_tps", "wall_ops_per_sec", "wall_tpmc"):
        rate = derived.get(rate_key)
        if rate is None:
            continue
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            continue  # type error already reported
        if not math.isfinite(rate):
            _fail(errors, path,
                  f"derived[{rate_key!r}] must be finite, got {rate!r} "
                  "(a division-by-zero guard upstream emitted a non-finite "
                  "rate; fix the producer, not the artifact)")
            continue
        if rate < 0:
            _fail(errors, path,
                  f"derived[{rate_key!r}] must be >= 0, got {rate!r}")
        if wall_seconds is None:
            _fail(errors, path,
                  f"derived[{rate_key!r}] present without 'wall_seconds'")
        elif rate > 0 and not wall_seconds_usable:
            _fail(errors, path,
                  f"derived[{rate_key!r}] is {rate!r} but "
                  f"wall_seconds is {wall_seconds!r}: a positive wall-clock "
                  "rate cannot come from a non-positive elapsed time")


def _check_recovery(errors, path, derived):
    """Chaos-recovery derived fields (bench/chaos_recovery.cc,
    docs/RECOVERY.md): recovery_time_ms is the modelled leader outage, so
    it must be a finite non-negative duration, it needs its kills_injected
    context, and the two must agree — a positive recovery time with zero
    kills (or kills with a zero recovery time) means the producer charged
    elections and fault rules from different runs. migration_dip_pct is a
    percentage of baseline throughput: finite and at most 100 (the run
    cannot lose more than all of its throughput; negative is fine — the
    migrate window may come out faster than baseline noise)."""
    if not isinstance(derived, dict):
        return

    def _num(key):
        value = derived.get(key)
        if value is None or isinstance(value, bool) or \
                not isinstance(value, (int, float)):
            return None  # absent, or type error already reported
        return value

    recovery = _num("recovery_time_ms")
    kills = _num("kills_injected")
    if recovery is not None:
        if not math.isfinite(recovery):
            _fail(errors, path,
                  f"derived['recovery_time_ms'] must be finite, "
                  f"got {recovery!r}")
        elif recovery < 0:
            _fail(errors, path,
                  f"derived['recovery_time_ms'] must be >= 0, "
                  f"got {recovery!r}")
        if kills is None:
            _fail(errors, path,
                  "derived['recovery_time_ms'] present without "
                  "'kills_injected' (the coherence check needs both)")
    if kills is not None:
        if not math.isfinite(kills) or kills < 0 or kills != int(kills):
            _fail(errors, path,
                  f"derived['kills_injected'] must be a non-negative "
                  f"integer count, got {kills!r}")
        elif recovery is not None and math.isfinite(recovery) \
                and recovery >= 0:
            if recovery > 0 and kills == 0:
                _fail(errors, path,
                      f"derived['recovery_time_ms'] is {recovery!r} but "
                      "kills_injected is 0: recovery time without an "
                      "injected kill")
            if recovery == 0 and kills > 0:
                _fail(errors, path,
                      f"derived['kills_injected'] is {kills!r} but "
                      "recovery_time_ms is 0: an injected leader kill "
                      "must cost an election")
    dip = _num("migration_dip_pct")
    if dip is not None:
        if not math.isfinite(dip):
            _fail(errors, path,
                  f"derived['migration_dip_pct'] must be finite, "
                  f"got {dip!r}")
        elif dip > 100.0:
            _fail(errors, path,
                  f"derived['migration_dip_pct'] must be <= 100, "
                  f"got {dip!r} (cannot lose more than all throughput)")


def _check_scan(errors, path, derived):
    """Vectorized-scan derived fields (bench/ablation_pushdown.cc,
    bench/hybrid_chbench.cc; DESIGN.md "Vectorized scans & aggregate
    pushdown"): a storage-side scan can never return more rows (or partial
    aggregate states) than the cells it examined, bytes_saved is a
    non-negative byte count, and the hybrid suite's OLAP rate must agree
    with its query count — a positive olap_qps with zero olap_queries (or
    queries without a rate) means the producer mixed numbers from
    different runs."""
    if not isinstance(derived, dict):
        return

    def _num(key):
        value = derived.get(key)
        if value is None or isinstance(value, bool) or \
                not isinstance(value, (int, float)):
            return None  # absent, or type error already reported
        return value

    for scanned_key, returned_key in (
            ("rows_scanned", "rows_returned"),
            ("olap_rows_scanned", "olap_rows_returned")):
        scanned = _num(scanned_key)
        returned = _num(returned_key)
        for key, value in ((scanned_key, scanned), (returned_key, returned)):
            if value is not None and \
                    (not math.isfinite(value) or value < 0):
                _fail(errors, path,
                      f"derived[{key!r}] must be a finite non-negative "
                      f"count, got {value!r}")
        if returned is not None and scanned is None:
            _fail(errors, path,
                  f"derived[{returned_key!r}] present without "
                  f"{scanned_key!r} (the coherence check needs both)")
        elif scanned is not None and returned is not None and \
                math.isfinite(scanned) and math.isfinite(returned) and \
                returned > scanned:
            _fail(errors, path,
                  f"derived[{returned_key!r}] is {returned!r} but "
                  f"{scanned_key!r} is {scanned!r}: a scan cannot return "
                  "more rows than it examined")

    for key in ("bytes_saved", "olap_bytes_saved"):
        value = _num(key)
        if value is not None and (not math.isfinite(value) or value < 0):
            _fail(errors, path,
                  f"derived[{key!r}] must be a finite non-negative byte "
                  f"count, got {value!r}")

    queries = _num("olap_queries")
    qps = _num("olap_qps")
    if qps is not None:
        if not math.isfinite(qps) or qps < 0:
            _fail(errors, path,
                  f"derived['olap_qps'] must be finite and >= 0, "
                  f"got {qps!r}")
        elif queries is None:
            _fail(errors, path,
                  "derived['olap_qps'] present without 'olap_queries' "
                  "(the coherence check needs both)")
        else:
            if qps > 0 and queries == 0:
                _fail(errors, path,
                      f"derived['olap_qps'] is {qps!r} but olap_queries "
                      "is 0: a rate without any queries")
            if queries > 0 and qps == 0:
                _fail(errors, path,
                      f"derived['olap_queries'] is {queries!r} but "
                      "olap_qps is 0: queries ran but the rate says none "
                      "did")


def _check_cache(errors, path, run):
    """Client record cache / one-sided read coherence
    (bench/ablation_client_cache.cc, DESIGN.md "One-sided reads & client
    caching"): derived cache_hit_rate must be a probability AND must equal
    hits/(hits+misses) recomputed from the run's own store.cache.* counters
    — a producer that derives the rate from one run and counters from
    another (or clamps a >1 ratio) is lying about its cache. A run that
    declares one_sided_capable = 0 (kernel-TCP network model) must report
    zero store.onesided.reads: one-sided READs are an RDMA-only mechanism."""
    derived = run.get("derived")
    counters = run.get("counters")
    if not isinstance(derived, dict):
        return
    counters = counters if isinstance(counters, dict) else {}

    hit_rate = derived.get("cache_hit_rate")
    if hit_rate is not None and not isinstance(hit_rate, bool) and \
            isinstance(hit_rate, (int, float)):
        if not math.isfinite(hit_rate) or hit_rate < 0 or hit_rate > 1:
            _fail(errors, path,
                  f"derived['cache_hit_rate'] must be within [0, 1], "
                  f"got {hit_rate!r}")
        else:
            hits = counters.get("store.cache.hits")
            misses = counters.get("store.cache.misses")
            if not isinstance(hits, int) or not isinstance(misses, int):
                _fail(errors, path,
                      "derived['cache_hit_rate'] present without the "
                      "store.cache.hits/store.cache.misses counters it "
                      "must be computed from")
            elif hits + misses == 0:
                _fail(errors, path,
                      "derived['cache_hit_rate'] present but the run "
                      "recorded no cache probes (hits + misses == 0)")
            elif abs(hit_rate - hits / (hits + misses)) > 1e-6:
                _fail(errors, path,
                      f"derived['cache_hit_rate'] is {hit_rate!r} but "
                      f"store.cache.hits/(hits+misses) is "
                      f"{hits / (hits + misses)!r}")

    capable = derived.get("one_sided_capable")
    if capable is not None and not isinstance(capable, bool) and \
            isinstance(capable, (int, float)):
        if capable not in (0, 1):
            _fail(errors, path,
                  f"derived['one_sided_capable'] must be 0 or 1, "
                  f"got {capable!r}")
        elif capable == 0:
            reads = counters.get("store.onesided.reads")
            if isinstance(reads, int) and reads > 0:
                _fail(errors, path,
                      f"run is not one-sided capable (kernel TCP) yet "
                      f"store.onesided.reads is {reads}")


EXEC_NODE_KEYS = {"tasks_completed", "steals", "yields", "parks", "unparks",
                  "busy_ns", "queue_peak"}


def _check_exec_nodes(errors, path, run):
    """Executor runs: per-core `exec<i>` node rows must agree with the
    derived executor_threads field — one row per executor thread, numbered
    densely from exec0, each carrying the full scheduler counter set
    (exec::PerCoreRows; docs/RUNTIME.md "Scheduler observability")."""
    nodes = run.get("nodes")
    derived = run.get("derived")
    if not isinstance(nodes, dict) or not isinstance(derived, dict):
        nodes = nodes if isinstance(nodes, dict) else {}
        derived = derived if isinstance(derived, dict) else {}
    exec_rows = {name: counters for name, counters in nodes.items()
                 if name.startswith("exec") and name[4:].isdigit()}
    threads = derived.get("executor_threads")
    if threads is None and not exec_rows:
        return
    if threads is None:
        _fail(errors, path,
              f"exec node rows {sorted(exec_rows)} present without "
              "derived['executor_threads']")
        return
    if isinstance(threads, bool) or not isinstance(threads, (int, float)):
        return  # type error already reported by _check_str_map
    if int(threads) != len(exec_rows):
        _fail(errors, path,
              f"derived['executor_threads'] is {threads} but the run has "
              f"{len(exec_rows)} exec<i> node rows")
    for i in range(len(exec_rows)):
        if f"exec{i}" not in exec_rows:
            _fail(errors, path,
                  f"exec node rows must be numbered densely from exec0; "
                  f"missing 'exec{i}' among {sorted(exec_rows)}")
    for name, counters in sorted(exec_rows.items()):
        if not isinstance(counters, dict):
            continue  # shape error already reported
        missing = EXEC_NODE_KEYS - set(counters)
        if missing:
            _fail(errors, path,
                  f"nodes[{name!r}] missing scheduler counters "
                  f"{sorted(missing)}")


def _check_run(errors, path, index, run):
    rpath = f"{path} runs[{index}]"
    if not isinstance(run, dict):
        _fail(errors, rpath, "must be an object")
        return
    label = run.get("label")
    if not isinstance(label, str) or not label:
        _fail(errors, rpath, f"label must be a non-empty string, got {label!r}")
    for section in ("derived", "counters", "gauges", "histograms"):
        if section not in run:
            _fail(errors, rpath, f"missing {section!r}")
    _check_str_map(errors, rpath, run.get("derived", {}), (int, float), "derived")
    _check_wall_clock(errors, rpath, run.get("derived", {}))
    _check_recovery(errors, rpath, run.get("derived", {}))
    _check_scan(errors, rpath, run.get("derived", {}))
    _check_cache(errors, rpath, run)
    _check_str_map(errors, rpath, run.get("counters", {}), int, "counters")
    _check_str_map(errors, rpath, run.get("gauges", {}), int, "gauges")
    hists = run.get("histograms", {})
    if not isinstance(hists, dict):
        _fail(errors, rpath, "histograms must be an object")
    else:
        for name, hist in hists.items():
            _check_histogram(errors, rpath, name, hist)
    if "nodes" in run:
        nodes = run["nodes"]
        if not isinstance(nodes, dict):
            _fail(errors, rpath, "nodes must be an object")
        else:
            for node, counters in nodes.items():
                _check_str_map(errors, rpath, counters, int,
                               f"nodes[{node!r}]")
    _check_exec_nodes(errors, rpath, run)
    known = {"label", "derived", "counters", "gauges", "histograms", "nodes"}
    extra = set(run) - known
    if extra:
        _fail(errors, rpath, f"unknown keys {sorted(extra)}")


def validate(path, doc):
    """Returns a list of error strings; empty means valid."""
    errors = []
    if not isinstance(doc, dict):
        _fail(errors, path, "top level must be an object")
        return errors
    if doc.get("schema_version") != 1:
        _fail(errors, path,
              f"schema_version must be 1, got {doc.get('schema_version')!r}")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        _fail(errors, path, f"bench must be a non-empty string, got {bench!r}")
    _check_str_map(errors, path, doc.get("config", {}), str, "config")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        _fail(errors, path, "runs must be a non-empty array")
        return errors
    labels = set()
    for i, run in enumerate(runs):
        _check_run(errors, path, i, run)
        if isinstance(run, dict) and isinstance(run.get("label"), str):
            if run["label"] in labels:
                _fail(errors, path, f"duplicate run label {run['label']!r}")
            labels.add(run["label"])
    known = {"schema_version", "bench", "config", "runs"}
    extra = set(doc) - known
    if extra:
        _fail(errors, path, f"unknown top-level keys {sorted(extra)}")
    return errors


def validate_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    return validate(path, doc)


def selftest():
    good = {
        "schema_version": 1,
        "bench": "t",
        "config": {"mix": "x"},
        "runs": [{
            "label": "r",
            "derived": {"tpmc": 1.5, "wall_seconds": 0.25, "wall_tps": 88.0},
            "counters": {"tx.committed": 3},
            "gauges": {"g": 0},
            "histograms": {"h": {"unit": "ns", "count": 1, "min": 2,
                                 "max": 3, "mean": 2.5, "stddev": 0.5,
                                 "p50": 2, "p95": 3, "p99": 3}},
            "nodes": {"sn0": {"gets": 1}},
        }],
    }
    assert validate("good", good) == [], validate("good", good)

    import copy
    good_exec = copy.deepcopy(good)
    good_exec["runs"][0]["derived"]["executor_threads"] = 2.0
    for i in range(2):
        good_exec["runs"][0]["nodes"][f"exec{i}"] = {
            k: 1 for k in EXEC_NODE_KEYS}
    assert validate("good_exec", good_exec) == [], \
        validate("good_exec", good_exec)

    # Coherent chaos-recovery fields: two kills with a positive recovery
    # time, no kills with zero, and a (possibly negative) bounded dip.
    good_recovery = copy.deepcopy(good)
    good_recovery["runs"][0]["derived"].update(
        recovery_time_ms=0.4, kills_injected=2, elections=2)
    good_recovery["runs"].append(copy.deepcopy(good["runs"][0]))
    good_recovery["runs"][1]["label"] = "baseline"
    good_recovery["runs"][1]["derived"].update(
        recovery_time_ms=0.0, kills_injected=0, migration_dip_pct=-3.5)
    assert validate("good_recovery", good_recovery) == [], \
        validate("good_recovery", good_recovery)

    # Coherent client-cache fields: the derived hit rate matches the
    # counters it came from, and a non-capable (kernel TCP) run reports
    # zero one-sided reads.
    good_cache = copy.deepcopy(good)
    good_cache["runs"][0]["derived"].update(cache_hit_rate=0.75,
                                            one_sided_capable=1)
    good_cache["runs"][0]["counters"].update({
        "store.cache.hits": 3, "store.cache.misses": 1,
        "store.onesided.reads": 2})
    good_cache["runs"].append(copy.deepcopy(good["runs"][0]))
    good_cache["runs"][1]["label"] = "eth"
    good_cache["runs"][1]["derived"].update(one_sided_capable=0)
    good_cache["runs"][1]["counters"].update({"store.onesided.reads": 0})
    assert validate("good_cache", good_cache) == [], \
        validate("good_cache", good_cache)

    # Coherent vectorized-scan fields: a hybrid run whose OLAP rate agrees
    # with its query count and whose storage nodes returned no more rows
    # than they examined, next to a TPC-C-only run with no OLAP at all.
    good_scan = copy.deepcopy(good)
    good_scan["runs"][0]["derived"].update(
        rows_scanned=8000, rows_returned=2, bytes_saved=900000,
        olap_queries=30, olap_qps=12.5, olap_rows_scanned=8000,
        olap_rows_returned=2, olap_bytes_saved=900000)
    good_scan["runs"].append(copy.deepcopy(good["runs"][0]))
    good_scan["runs"][1]["label"] = "tpcc_only"
    good_scan["runs"][1]["derived"].update(olap_queries=0, olap_qps=0.0)
    assert validate("good_scan", good_scan) == [], \
        validate("good_scan", good_scan)
    bad_cases = [
        ("schema_version", lambda d: d.update(schema_version=2)),
        ("missing bench", lambda d: d.pop("bench")),
        ("empty runs", lambda d: d.update(runs=[])),
        ("counter float", lambda d: d["runs"][0]["counters"].update(x=1.5)),
        ("hist missing p99",
         lambda d: d["runs"][0]["histograms"]["h"].pop("p99")),
        ("hist p50>p95",
         lambda d: d["runs"][0]["histograms"]["h"].update(p50=9)),
        ("hist min>p50",
         lambda d: d["runs"][0]["histograms"]["h"].update(p50=1)),
        ("hist p99>max",
         lambda d: d["runs"][0]["histograms"]["h"].update(p99=4)),
        ("dup label", lambda d: d["runs"].append(copy.deepcopy(d["runs"][0]))),
        ("unknown run key", lambda d: d["runs"][0].update(bogus=1)),
        ("node counter str",
         lambda d: d["runs"][0]["nodes"]["sn0"].update(gets="no")),
        ("wall_seconds zero",
         lambda d: d["runs"][0]["derived"].update(wall_seconds=0)),
        ("wall_seconds negative",
         lambda d: d["runs"][0]["derived"].update(wall_seconds=-1.5)),
        ("wall_tps negative",
         lambda d: d["runs"][0]["derived"].update(wall_tps=-2.0)),
        ("wall_tps positive with wall_seconds zero",
         lambda d: d["runs"][0]["derived"].update(wall_seconds=0,
                                                  wall_tps=88.0)),
        ("wall_tps infinite",
         lambda d: d["runs"][0]["derived"].update(wall_tps=math.inf)),
        ("wall_seconds NaN",
         lambda d: d["runs"][0]["derived"].update(wall_seconds=math.nan)),
        ("wall_tpmc infinite with wall_seconds zero",
         lambda d: d["runs"][0]["derived"].update(wall_seconds=0.0,
                                                  wall_tpmc=math.inf)),
        ("wall rate without wall_seconds",
         lambda d: (d["runs"][0]["derived"].pop("wall_seconds"),
                    d["runs"][0]["derived"].update(wall_ops_per_sec=10.0))),
        ("exec rows without executor_threads",
         lambda d: d["runs"][0]["nodes"].update(
             exec0={k: 1 for k in EXEC_NODE_KEYS})),
        ("executor_threads != exec row count",
         lambda d: (d["runs"][0]["derived"].update(executor_threads=2.0),
                    d["runs"][0]["nodes"].update(
                        exec0={k: 1 for k in EXEC_NODE_KEYS}))),
        ("exec rows not densely numbered",
         lambda d: (d["runs"][0]["derived"].update(executor_threads=1.0),
                    d["runs"][0]["nodes"].update(
                        exec1={k: 1 for k in EXEC_NODE_KEYS}))),
        ("exec row missing scheduler counter",
         lambda d: (d["runs"][0]["derived"].update(executor_threads=1.0),
                    d["runs"][0]["nodes"].update(exec0={"steals": 1}))),
        ("recovery_time_ms without kills_injected",
         lambda d: d["runs"][0]["derived"].update(recovery_time_ms=0.4)),
        ("recovery_time_ms negative",
         lambda d: d["runs"][0]["derived"].update(recovery_time_ms=-0.1,
                                                  kills_injected=1)),
        ("recovery_time_ms infinite",
         lambda d: d["runs"][0]["derived"].update(recovery_time_ms=math.inf,
                                                  kills_injected=1)),
        ("recovery time without a kill",
         lambda d: d["runs"][0]["derived"].update(recovery_time_ms=0.4,
                                                  kills_injected=0)),
        ("kill without recovery time",
         lambda d: d["runs"][0]["derived"].update(recovery_time_ms=0.0,
                                                  kills_injected=2)),
        ("kills_injected fractional",
         lambda d: d["runs"][0]["derived"].update(recovery_time_ms=0.4,
                                                  kills_injected=1.5)),
        ("migration_dip_pct above 100",
         lambda d: d["runs"][0]["derived"].update(migration_dip_pct=120.0)),
        ("migration_dip_pct NaN",
         lambda d: d["runs"][0]["derived"].update(
             migration_dip_pct=math.nan)),
        ("cache_hit_rate above 1",
         lambda d: (d["runs"][0]["derived"].update(cache_hit_rate=1.2),
                    d["runs"][0]["counters"].update({
                        "store.cache.hits": 6,
                        "store.cache.misses": 1}))),
        ("cache_hit_rate mismatches counters",
         lambda d: (d["runs"][0]["derived"].update(cache_hit_rate=0.5),
                    d["runs"][0]["counters"].update({
                        "store.cache.hits": 3,
                        "store.cache.misses": 1}))),
        ("cache_hit_rate without cache counters",
         lambda d: d["runs"][0]["derived"].update(cache_hit_rate=0.5)),
        ("cache_hit_rate with zero probes",
         lambda d: (d["runs"][0]["derived"].update(cache_hit_rate=0.0),
                    d["runs"][0]["counters"].update({
                        "store.cache.hits": 0,
                        "store.cache.misses": 0}))),
        ("one-sided reads on a non-capable network",
         lambda d: (d["runs"][0]["derived"].update(one_sided_capable=0),
                    d["runs"][0]["counters"].update({
                        "store.onesided.reads": 4}))),
        ("one_sided_capable out of range",
         lambda d: d["runs"][0]["derived"].update(one_sided_capable=2)),
        ("rows_returned exceeds rows_scanned",
         lambda d: d["runs"][0]["derived"].update(rows_scanned=10,
                                                  rows_returned=11)),
        ("rows_returned without rows_scanned",
         lambda d: d["runs"][0]["derived"].update(rows_returned=5)),
        ("olap rows_returned exceeds rows_scanned",
         lambda d: d["runs"][0]["derived"].update(olap_rows_scanned=10,
                                                  olap_rows_returned=11)),
        ("rows_scanned negative",
         lambda d: d["runs"][0]["derived"].update(rows_scanned=-1,
                                                  rows_returned=0)),
        ("bytes_saved negative",
         lambda d: d["runs"][0]["derived"].update(bytes_saved=-64)),
        ("olap_qps positive with zero queries",
         lambda d: d["runs"][0]["derived"].update(olap_queries=0,
                                                  olap_qps=4.0)),
        ("olap queries with zero qps",
         lambda d: d["runs"][0]["derived"].update(olap_queries=30,
                                                  olap_qps=0.0)),
        ("olap_qps without olap_queries",
         lambda d: d["runs"][0]["derived"].update(olap_qps=4.0)),
        ("olap_qps infinite",
         lambda d: d["runs"][0]["derived"].update(olap_queries=30,
                                                  olap_qps=math.inf)),
    ]
    for name, mutate in bad_cases:
        doc = copy.deepcopy(good)
        mutate(doc)
        assert validate(name, doc), f"selftest: {name!r} not rejected"
    print("selftest ok:", 5 + len(bad_cases), "cases")
    return 0


def main(argv):
    if "--selftest" in argv:
        return selftest()

    paths = []
    if "--run" in argv:
        i = argv.index("--run")
        binary = argv[i + 1]
        workdir = "."
        if "--workdir" in argv:
            workdir = argv[argv.index("--workdir") + 1]
        os.makedirs(workdir, exist_ok=True)
        for stale in glob.glob(os.path.join(workdir, "BENCH_*.json")):
            os.remove(stale)
        result = subprocess.run([os.path.abspath(binary)], cwd=workdir,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        sys.stdout.buffer.write(result.stdout)
        if result.returncode != 0:
            print(f"error: {binary} exited {result.returncode}")
            return 1
        paths = sorted(glob.glob(os.path.join(workdir, "BENCH_*.json")))
        if not paths:
            print(f"error: {binary} wrote no BENCH_*.json in {workdir}")
            return 1
    else:
        paths = [a for a in argv[1:] if not a.startswith("--")]
        if not paths:
            print(__doc__)
            return 1

    failed = False
    for path in paths:
        errors = validate_file(path)
        if errors:
            failed = True
            for error in errors:
                print("error:", error)
        else:
            print(f"ok: {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
