#!/usr/bin/env python3
"""Perf gate table over bench JSON.

Usage: compare.py BENCH.json [BENCH.json ...]

Pass the `--json` output of bench_micro_kernels, bench_dynamic_width_sweep
and bench_sweep_service_load; their results are pooled. Every gate is one
row of GATES: it selects a numerator entry and, for ratio gates, a
denominator entry by their fields, and compares the value under `key` (or
the ratio of the two) against a fixed bound. A row whose skip-if holds is
skipped; a row whose entries are missing fails. Exits 1 when any row
fails, 0 otherwise.
"""

import json
import operator
import sys

BATCH = {"name": "batch_sweep"}
THREADS = {"name": "batch_sweep_threads"}
SERVICE = {"name": "sweep_service_load"}
WIDTH = {"name": "dynamic_width_sweep"}


def find(results, fields):
    """The first result entry carrying every (field, value) of `fields`."""
    return next((e for e in results if all(e.get(k) == v for k, v in fields.items())), None)


def few_threads(results):
    """fewer than 4 hardware threads"""
    host = find(results, {"name": "host_info"})
    return host is None or host["hardware_threads"] < 4


def no_orc(results):
    """no orc entries (LLVM-OFF build)"""
    return find(results, {**WIDTH, "mode": "orc"}) is None


# (label, numerator, denominator or None, value key, comparator, bound, skip-if)
GATES = (
    *((f"batch x{n} vs scalar", {**BATCH, "mode": "scalar", "lanes": n},
       {**BATCH, "mode": "batch", "lanes": n}, "ns_per_step_per_lane", ">=", 2.0, None)
      for n in (8, 16, 32)),
    *((f"threads x{n} pool vs single", {**THREADS, "mode": "single", "lanes": n},
       {**THREADS, "mode": "pool", "lanes": n}, "ns_per_step_per_lane", ">=", 2.0, few_threads)
      for n in (32, 64)),
    ("lane-health scan % of a step", {"name": "lane_health_scan"}, None, "amortized_pct",
     "<=", 2.0, None),
    ("verifier % of a cold compile", {"name": "ir_verifier"}, None, "pct_of_compile",
     "<=", 5.0, None),
    ("service warm vs per-call", {**SERVICE, "mode": "percall_interp", "stat": "p50"},
     {**SERVICE, "mode": "warm_interp", "stat": "p50"}, "ns_per_job", ">=", 0.9, None),
    *((f"service {mode} p99/p50", {**SERVICE, "mode": mode, "stat": "p99"},
       {**SERVICE, "mode": mode, "stat": "p50"}, "ns_per_job", "<=", 6.0, None)
      for mode in ("warm_interp", "concurrent_interp")),
    *((f"dynamic width {mode} x{odd}/x{pinned}", {**WIDTH, "mode": mode, "width": odd},
       {**WIDTH, "mode": mode, "width": pinned}, "ns_per_step_per_lane", "<=", 1.4,
       no_orc if mode == "orc" else None)
      for mode in ("interpreter", "orc") for odd, pinned in ((7, 8), (17, 16), (33, 32))),
)

COMPARATORS = {">=": operator.ge, "<=": operator.le}


def evaluate(results):
    """Print one verdict line per gate row; return the number of failures."""
    failures = 0
    for label, numerator, denominator, key, comparator, bound, skip_if in GATES:
        if skip_if is not None and skip_if(results):
            print(f"{label}: {skip_if.__doc__} [skipped]")
            continue
        top = find(results, numerator)
        bottom = find(results, denominator) if denominator is not None else {key: 1.0}
        if top is None or bottom is None:
            print(f"{label}: missing {numerator if top is None else denominator} [FAIL]")
            failures += 1
            continue
        value = top[key] / bottom[key]
        ok = COMPARATORS[comparator](value, bound)
        print(f"{label}: {value:.2f} (required {comparator} {bound}) [{'ok' if ok else 'FAIL'}]")
        failures += not ok
    return failures


def main(paths):
    if not paths or any(p.startswith("-") for p in paths):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = []
    for path in paths:
        with open(path) as f:
            results.extend(json.load(f)["results"])
    return 1 if evaluate(results) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
