#!/usr/bin/env python3
"""Unit tests for the perf gate table in compare.py, on inline fixtures.

Run: python3 bench/test_compare.py (no bench binary is needed).
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


def _width(mode, width, ns):
    return {"circuit": "RC20", "mode": mode, "name": "dynamic_width_sweep", "width": width,
            "ns_per_step_per_lane": ns}


def _service(mode, stat, ns):
    return {"mode": mode, "name": "sweep_service_load", "stat": stat, "ns_per_job": ns}


# One passing run of the three gated benches, in their --json schema.
MICRO = [
    {"circuit": "RC20", "name": "model_step", "ns_per_step": 390.0},
    *({"circuit": "RC20", "mode": mode, "name": "batch_sweep", "lanes": lanes,
       "ns_per_step_per_lane": ns}
      for lanes, scalar, batch in ((8, 360.0, 92.0), (16, 395.0, 64.0), (32, 441.0, 55.0))
      for mode, ns in (("scalar", scalar), ("batch", batch))),
    {"circuit": "RC20", "name": "lane_health_scan", "amortized_pct": 0.96, "interval": 32,
     "lanes": 32, "ns_per_scan": 724.6, "step_ns": 2347.9},
    {"circuit": "RC20", "name": "ir_verifier", "compile_ns": 336926.0, "ns_per_verify": 9729.0,
     "pct_of_compile": 2.89},
    {"name": "host_info", "hardware_threads": 4},
    *({"circuit": "RC20", "mode": mode, "name": "batch_sweep_threads", "lanes": lanes,
       "threads": threads, "ns_per_step_per_lane": ns}
      for lanes, single, pool in ((32, 90.0, 40.0), (64, 151.0, 52.0))
      for mode, threads, ns in (("single", 1, single), ("pool", 4, pool))),
]
DYNAMIC_WIDTH = [
    _width(mode, width, ns * scale)
    for mode, scale in (("interpreter", 1.0), ("orc", 0.4))
    for width, ns in ((7, 111.0), (8, 90.0), (16, 72.0), (17, 80.0), (32, 61.0), (33, 74.0))
]
SERVICE = [
    _service("percall_interp", "p50", 3.2e6),
    _service("warm_interp", "p50", 3.0e6),
    _service("warm_interp", "p99", 5.5e6),
    _service("concurrent_interp", "p50", 19.4e6),
    _service("concurrent_interp", "p99", 21.8e6),
]
PASSING = MICRO + DYNAMIC_WIDTH + SERVICE

# The floors the table must keep, by label prefix: (comparator, bound, rows).
FLOORS = {
    "batch": (">=", 2.0, 3),
    "threads": (">=", 2.0, 2),
    "lane-health scan": ("<=", 2.0, 1),
    "verifier": ("<=", 5.0, 1),
    "service warm vs": (">=", 0.9, 1),
    "service ": ("<=", 6.0, 2),
    "dynamic width": ("<=", 1.4, 6),
}


def run(results):
    """compare.main over `results` written to a JSON file: (status, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.json")
        with open(path, "w") as f:
            json.dump({"bench": "fixture", "results": results}, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = compare.main([path])
    return status, out.getvalue()


def verdicts(output):
    """label -> verdict ("ok", "FAIL" or "skipped") per printed gate line."""
    table = {}
    for line in output.splitlines():
        label, _, rest = line.partition(": ")
        table[label] = rest.rsplit("[", 1)[1].rstrip("]")
    return table


class GateTableTest(unittest.TestCase):
    def test_all_rows_passing_exits_zero(self):
        status, output = run(PASSING)
        self.assertEqual(status, 0, output)
        self.assertEqual(verdicts(output), {row[0]: "ok" for row in compare.GATES})

    def test_bounds_are_unchanged(self):
        rows = {prefix: [] for prefix in FLOORS}
        for label, _, _, _, comparator, bound, _ in compare.GATES:
            prefix = next(p for p in FLOORS if label.startswith(p))
            rows[prefix].append((comparator, bound))
        for prefix, (comparator, bound, count) in FLOORS.items():
            self.assertEqual(rows[prefix], [(comparator, bound)] * count, prefix)

    def test_each_row_pushed_past_its_bound_fails_naming_it(self):
        for label, numerator, denominator, key, comparator, bound, _ in compare.GATES:
            with self.subTest(label):
                results = copy.deepcopy(PASSING)
                below = compare.find(results, denominator)[key] if denominator else 1.0
                factor = 0.5 if comparator == ">=" else 2.0
                compare.find(results, numerator)[key] = factor * bound * below
                status, output = run(results)
                self.assertEqual(status, 1, output)
                failed = [k for k, v in verdicts(output).items() if v == "FAIL"]
                self.assertEqual(failed, [label], output)

    def test_no_orc_entries_skips_orc_rows(self):
        results = [e for e in PASSING if e.get("mode") != "orc"]
        status, output = run(results)
        self.assertEqual(status, 0, output)
        skipped = {k for k, v in verdicts(output).items() if v == "skipped"}
        self.assertEqual(skipped, {row[0] for row in compare.GATES if "orc" in row[0]})

    def test_single_hardware_thread_skips_threads_rows(self):
        results = copy.deepcopy(PASSING)
        compare.find(results, {"name": "host_info"})["hardware_threads"] = 1
        compare.find(results, {"name": "batch_sweep_threads", "mode": "pool"})[
            "ns_per_step_per_lane"] = 1e6
        status, output = run(results)
        self.assertEqual(status, 0, output)
        skipped = {k for k, v in verdicts(output).items() if v == "skipped"}
        self.assertEqual(skipped, {"threads x32 pool vs single", "threads x64 pool vs single"})

    def test_missing_required_entry_fails(self):
        results = [e for e in PASSING if e["name"] != "lane_health_scan"]
        status, output = run(results)
        self.assertEqual(status, 1, output)
        self.assertEqual(verdicts(output)["lane-health scan % of a step"], "FAIL")

    def test_no_json_path_is_a_usage_error(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(compare.main([]), 2)
            self.assertEqual(compare.main(["--history", "x.jsonl"]), 2)


if __name__ == "__main__":
    unittest.main()
