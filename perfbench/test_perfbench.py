#!/usr/bin/env python3
"""Tests of the pipeline benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each test drives perfbench/run.py exactly as a benchmark run does, with
one-second timed phases: every workload emits every named metric with its
unit, a deliberately perturbed reference fails every op, the same seed
feeds identical inputs and simulated counts, and another seed feeds other
inputs that still pass every check.
"""

import functools
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # every workload, also those BENCHMARK.json leaves out  # noqa: E402


@functools.lru_cache(maxsize=None)
def run(workload, seed=1, trace=0, extra=(), repeat=0):
    """(stdout lines, result) of one short run; `repeat` forces a fresh run."""
    del repeat
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if completed.returncode != 0:
        raise AssertionError(f"{workload} exited {completed.returncode}: {completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def described(lines):
    """The lines naming the generated inputs and the simulated counts."""
    return [line for line in lines if line.startswith(("inputs:", "simulated per op:"))]


class BenchmarkTest(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    _, result = run(workload, trace=trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, expected)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                        if kind == "end_to_end":
                            self.assertGreater(metric["value"], 0, name)

    def test_perturbed_reference_fails_every_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = run(workload, extra=("--perturb-reference",))
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])
                self.assertTrue(any(line.endswith("failed_op_fraction 1") for line in lines))

    def test_same_seed_gives_same_inputs_and_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, _ = run(workload)
                second, _ = run(workload, repeat=1)
                self.assertEqual(described(first), described(second))
                self.assertEqual(len(described(first)), 2)
        counts = [name for name in (m["name"] for m in SPEC["per_layer"])
                  if name.startswith(("vp.", "de.")) and name != "vp.digital_ns_per_instr"]
        _, traced = run("platform_oa", trace=1)
        _, again = run("platform_oa", trace=1, repeat=1)
        for name in counts:
            self.assertGreater(traced["metrics"][name]["value"], 0, name)
            self.assertEqual(traced["metrics"][name], again["metrics"][name], name)

    def test_other_seed_gives_other_inputs_and_passes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, _ = run(workload)
                other, result = run(workload, seed=2)
                self.assertNotEqual(described(first)[0], described(other)[0])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
