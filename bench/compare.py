#!/usr/bin/env python3
"""Perf-trajectory threshold check over bench JSON output.

Reads the BENCH_micro.json written by `bench_micro_kernels --json <path>`
and enforces two floors:

  * fused-engine speedup: on the RC20 and OA circuits the fused strategy
    must be at least `--min-speedup` (default 2.0) times faster than the
    stack-bytecode baseline;
  * batch-execution speedup: at every measured batch width >=
    `--batch-floor-lanes` (default 8), BatchCompiledModel's per-lane
    ns/step must be at least `--min-batch-speedup` (default 2.0) times
    better than N independent CompiledModel instances;
  * worker-pool sweep speedup: at batch widths >= `--threads-floor-lanes`
    (default 32) the sharded simulate_sweep must deliver at least
    `--min-threads-speedup` (default 2.0) times the single-threaded
    aggregate throughput — enforced only when the recorded host has >= 4
    hardware threads (informational otherwise, e.g. on a 1-core CI box);
  * lane-health scan overhead: the periodic non-finite slot-file scan
    behind lane quarantine, amortized over its default interval, must
    cost at most `--max-scan-pct` (default 2.0) percent of one RC20
    batch step at width 32 — the guard that keeps quarantine cheap
    enough to stay on by default;
  * sweep-service warm path (entries from BENCH_service.json /
    bench_sweep_service_load via --extra-json; all skipped when absent):
    a warm interpreter job on the persistent service must be at least
    `--min-service-warm-speedup` (default 0.9) times as fast as calling
    simulate_sweep per job (i.e. beat the per-call executor rebuild,
    within measurement tolerance); and job latency must stay stable:
    p99 <= `--max-service-p99-ratio` (default 6.0) times p50 for both the
    single-client warm series and the N-client concurrent series;
  * dynamic-width parity (entries from BENCH_dynamic_width.json /
    bench_dynamic_width_sweep via --extra-json): at each odd batch width
    (7, 17, 33) the per-lane ns/step must stay within
    `--max-dynamic-width-ratio` (default 1.4) of the neighbouring pinned
    row-multiple width (8, 16, 32) on the interpreter and orc arms — the
    runtime LaneLayout guarantee that non-pinned widths ride the same
    padded vector rows instead of falling off a scalar cliff. Skipped per
    arm when entries are absent (the orc arm on AMSVP_WITH_LLVM=OFF
    builds).

With `--history <path>` every run is appended to a JSONL file and each
metric is compared against the best value ever recorded there: regressions
beyond `--history-tolerance` (default 10%) are flagged as warnings, or as
failures with `--strict-history`. This catches gradual drift that a
single-run threshold never sees.

Additional bench outputs (e.g. BENCH_table1.json from
`bench_table1_isolation --json`) can be folded into the same history
append/regression check with `--extra-json <path>` (repeatable): their
metrics carry no single-run thresholds, but drift against the best
recorded run is flagged exactly like the micro-bench metrics.

Exits non-zero on violation, so it can gate CI (wired as the optional
`bench_perf_check` ctest, enabled with -DAMSVP_BENCH_TESTS=ON).

Usage:
    compare.py BENCH_micro.json [--min-speedup 2.0] [--circuits RC20,OA]
               [--extra-json BENCH_table1.json]
               [--history BENCH_history.jsonl] [--strict-history]
"""

import argparse
import json
import os
import sys
import time


def load_results(path):
    with open(path) as f:
        data = json.load(f)
    return data.get("results", [])


def model_step_table(results):
    table = {}
    for entry in results:
        if entry.get("name") != "model_step":
            continue
        table[(entry["circuit"], entry["strategy"])] = float(entry["ns_per_step"])
    return table


def batch_sweep_table(results):
    """(lanes, mode) -> per-lane ns/step."""
    table = {}
    for entry in results:
        if entry.get("name") != "batch_sweep":
            continue
        table[(int(entry["lanes"]), entry["mode"])] = float(entry["ns_per_step_per_lane"])
    return table


def threaded_sweep_table(results):
    """(lanes, mode) -> per-lane ns/step of the whole sweep."""
    table = {}
    for entry in results:
        if entry.get("name") != "batch_sweep_threads":
            continue
        table[(int(entry["lanes"]), entry["mode"])] = float(entry["ns_per_step_per_lane"])
    return table


def sweep_service_table(results):
    """(mode, stat) -> ns per job of the service load bench."""
    table = {}
    for entry in results:
        if entry.get("name") != "sweep_service_load":
            continue
        if "ns_per_job" in entry:
            table[(entry["mode"], entry["stat"])] = float(entry["ns_per_job"])
    return table


def dynamic_width_table(results):
    """(mode, width) -> per-lane ns/step of the dynamic-width bench."""
    table = {}
    for entry in results:
        if entry.get("name") != "dynamic_width_sweep":
            continue
        table[(entry["mode"], int(entry["width"]))] = float(entry["ns_per_step_per_lane"])
    return table


def lane_health_scan_entry(results):
    for entry in results:
        if entry.get("name") == "lane_health_scan":
            return entry
    return None


def ir_verifier_entry(results):
    for entry in results:
        if entry.get("name") == "ir_verifier":
            return entry
    return None


def hardware_threads(results):
    for entry in results:
        if entry.get("name") == "host_info":
            return int(entry.get("hardware_threads", 1))
    return 1


def metric_key(entry):
    """Stable identity of one measured series: its string labels."""
    labels = sorted((k, v) for k, v in entry.items() if isinstance(v, str))
    # lanes / n / threads / width are parameters, not measurements — part
    # of the identity.
    for param in ("lanes", "n", "threads", "width"):
        if param in entry:
            labels.append((param, str(int(entry[param]))))
    return json.dumps(labels)


def metric_value(entry):
    """The one measured (lower-is-better) value of a result entry."""
    for key, value in entry.items():
        if key.startswith("ns_per_") and isinstance(value, (int, float)):
            return key, float(value)
    return None, None


def check_history(results, history_path, tolerance, strict):
    """Append this run to the history and flag regressions vs the best run.

    Returns the number of regressions (counted as failures when strict).
    """
    best = {}
    if os.path.exists(history_path):
        with open(history_path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    run = json.loads(line)
                except json.JSONDecodeError:
                    # A run killed mid-append leaves a truncated line; skip
                    # it rather than wedging every future check.
                    print(f"WARN: skipping unparseable line in {history_path}",
                          file=sys.stderr)
                    continue
                for entry in run.get("results", []):
                    key = metric_key(entry)
                    _, value = metric_value(entry)
                    if value is None:
                        continue
                    if key not in best or value < best[key]:
                        best[key] = value

    regressions = 0
    for entry in results:
        key = metric_key(entry)
        name, value = metric_value(entry)
        if value is None or key not in best:
            continue
        if value > best[key] * (1.0 + tolerance):
            regressions += 1
            labels = ", ".join(f"{k}={v}" for k, v in entry.items() if isinstance(v, str))
            print(f"{'FAIL' if strict else 'WARN'}: regression vs best recorded run: "
                  f"[{labels}] {name} {value:.1f} vs best {best[key]:.1f} "
                  f"(+{100.0 * (value / best[key] - 1.0):.1f}%, allowed +{100.0 * tolerance:.0f}%)",
                  file=sys.stderr if strict else sys.stdout)

    with open(history_path, "a") as f:
        f.write(json.dumps({"timestamp": time.time(), "results": results}) + "\n")
    print(f"# appended run to {history_path} "
          f"({len(best)} tracked metrics, {regressions} regression(s))")
    return regressions if strict else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path", help="BENCH_micro.json produced by bench_micro_kernels")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required fused-vs-bytecode speedup (default: 2.0)")
    parser.add_argument("--circuits", default="RC20,OA",
                        help="comma-separated circuits to check (default: RC20,OA)")
    parser.add_argument("--min-batch-speedup", type=float, default=2.0,
                        help="required batch-vs-scalar per-lane speedup (default: 2.0)")
    parser.add_argument("--batch-floor-lanes", type=int, default=8,
                        help="enforce the batch floor at widths >= this (default: 8)")
    parser.add_argument("--min-threads-speedup", type=float, default=2.0,
                        help="required worker-pool-vs-single sweep speedup (default: 2.0)")
    parser.add_argument("--threads-floor-lanes", type=int, default=32,
                        help="enforce the worker-pool floor at widths >= this (default: 32)")
    parser.add_argument("--max-verify-pct", type=float, default=5.0,
                        help="max IR-verifier cost as a percentage of one RC20 "
                             "cold fused compile (the Release-build cache-admission "
                             "overhead)")
    parser.add_argument("--max-scan-pct", type=float, default=2.0,
                        help="allowed amortized lane-health-scan cost as a percentage of "
                             "one batch step at width 32 (default: 2.0)")
    parser.add_argument("--min-service-warm-speedup", type=float, default=0.9,
                        help="required warm-service vs per-call-rebuild interpreter job "
                             "speedup (default: 0.9 — beat the rebuild within tolerance)")
    parser.add_argument("--max-service-p99-ratio", type=float, default=6.0,
                        help="allowed p99/p50 job-latency ratio for the service load "
                             "series (default: 6.0)")
    # Default headroom: an odd width pays intrinsic ghost-lane work of
    # padded/width (x17 runs the padded-20 kernel: floor 20/17 = 1.18), so
    # 1.4 leaves ~19% for CI timing noise while still catching the 2-4x
    # scalar cliff this gate exists to prevent.
    parser.add_argument("--max-dynamic-width-ratio", type=float, default=1.4,
                        help="odd-width per-lane ns/step may be at most this many "
                             "times the neighbouring pinned row-multiple width's, "
                             "on the interpreter and orc arms "
                             "(BENCH_dynamic_width.json; absent arms skip)")
    parser.add_argument("--extra-json", action="append", default=[],
                        help="additional bench JSON (e.g. BENCH_table1.json) folded into "
                             "the history tracking; no single-run thresholds applied")
    parser.add_argument("--history", default=None,
                        help="JSONL file: append this run, flag regressions vs the best run")
    parser.add_argument("--history-tolerance", type=float, default=0.10,
                        help="allowed slowdown vs the best recorded value (default: 0.10)")
    parser.add_argument("--strict-history", action="store_true",
                        help="treat history regressions as failures, not warnings")
    args = parser.parse_args()

    results = load_results(args.json_path)
    table = model_step_table(results)
    if not table:
        print(f"error: no model_step results in {args.json_path}", file=sys.stderr)
        return 2

    failures = 0
    for circuit in args.circuits.split(","):
        circuit = circuit.strip()
        try:
            fused = table[(circuit, "fused")]
            bytecode = table[(circuit, "bytecode")]
        except KeyError as missing:
            print(f"error: missing result {missing} for circuit {circuit}", file=sys.stderr)
            failures += 1
            continue
        speedup = bytecode / fused
        status = "ok" if speedup >= args.min_speedup else "FAIL"
        print(f"{circuit}: fused {fused:.1f} ns/step, bytecode {bytecode:.1f} ns/step, "
              f"speedup {speedup:.2f}x (required >= {args.min_speedup:.2f}x) [{status}]")
        if speedup < args.min_speedup:
            failures += 1

    batch = batch_sweep_table(results)
    widths = sorted({lanes for lanes, _ in batch})
    for lanes in widths:
        try:
            scalar = batch[(lanes, "scalar")]
            batched = batch[(lanes, "batch")]
        except KeyError as missing:
            print(f"error: missing batch_sweep result {missing}", file=sys.stderr)
            failures += 1
            continue
        speedup = scalar / batched
        enforced = lanes >= args.batch_floor_lanes
        status = "ok" if (not enforced or speedup >= args.min_batch_speedup) else "FAIL"
        floor = f"required >= {args.min_batch_speedup:.2f}x" if enforced else "informational"
        print(f"batch x{lanes}: scalar {scalar:.1f} ns/step/lane, "
              f"batch {batched:.1f} ns/step/lane, speedup {speedup:.2f}x ({floor}) [{status}]")
        if enforced and speedup < args.min_batch_speedup:
            failures += 1

    threaded = threaded_sweep_table(results)
    cores = hardware_threads(results)
    for lanes in sorted({lanes for lanes, _ in threaded}):
        single = threaded.get((lanes, "single"))
        pool = threaded.get((lanes, "pool"))
        if single is None:
            print(f"error: missing batch_sweep_threads single result at x{lanes}",
                  file=sys.stderr)
            failures += 1
            continue
        if pool is None:
            # A 1-core host never measures the pool arm; nothing to gate.
            print(f"threads x{lanes}: single {single:.1f} ns/step/lane, "
                  f"no pool measurement ({cores} hardware thread(s)) [skipped]")
            continue
        speedup = single / pool
        enforced = lanes >= args.threads_floor_lanes and cores >= 4
        status = "ok" if (not enforced or speedup >= args.min_threads_speedup) else "FAIL"
        floor = (f"required >= {args.min_threads_speedup:.2f}x" if enforced
                 else f"informational, {cores} hardware thread(s)")
        print(f"threads x{lanes}: single {single:.1f} ns/step/lane, "
              f"pool {pool:.1f} ns/step/lane, speedup {speedup:.2f}x ({floor}) [{status}]")
        if enforced and speedup < args.min_threads_speedup:
            failures += 1

    # Lane-health scan overhead: the sweep driver pays one scan every
    # `interval` steps, so the enforced number is scan_ns / interval as a
    # fraction of one same-width batch step.
    scan = lane_health_scan_entry(results)
    if scan is None:
        print(f"error: no lane_health_scan result in {args.json_path}", file=sys.stderr)
        failures += 1
    else:
        scan_ns = float(scan["ns_per_scan"])
        step_ns = float(scan["step_ns"])
        interval = float(scan["interval"])
        amortized_pct = 100.0 * scan_ns / interval / step_ns
        status = "ok" if amortized_pct <= args.max_scan_pct else "FAIL"
        print(f"lane_health_scan x{int(scan['lanes'])}: scan {scan_ns:.1f} ns, "
              f"step {step_ns:.1f} ns, amortized {amortized_pct:.2f}% of a step at "
              f"interval {interval:.0f} (allowed <= {args.max_scan_pct:.1f}%) [{status}]")
        if amortized_pct > args.max_scan_pct:
            failures += 1

    # IR verifier overhead: Release pays one verify_layout per model at
    # ModelCache admission, so the gate is verification as a fraction of
    # the cold fused compile it is attached to.
    verifier = ir_verifier_entry(results)
    if verifier is None:
        print(f"error: no ir_verifier result in {args.json_path}", file=sys.stderr)
        failures += 1
    else:
        verify_ns = float(verifier["ns_per_verify"])
        compile_ns = float(verifier["compile_ns"])
        verify_pct = 100.0 * verify_ns / compile_ns
        status = "ok" if verify_pct <= args.max_verify_pct else "FAIL"
        print(f"ir_verifier RC20: verify {verify_ns:.1f} ns, cold compile "
              f"{compile_ns:.1f} ns, {verify_pct:.2f}% of compile "
              f"(allowed <= {args.max_verify_pct:.1f}%) [{status}]")
        if verify_pct > args.max_verify_pct:
            failures += 1

    tracked = list(results)
    for path in args.extra_json:
        try:
            extra = load_results(path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot read extra json {path}: {err}", file=sys.stderr)
            failures += 1
            continue
        if not extra:
            print(f"WARN: no results in extra json {path}")
        tracked.extend(extra)

    # Sweep-service warm-path floor and latency stability. Entries arrive
    # through --extra-json (BENCH_service.json); an empty table means the
    # load bench did not run — skip.
    service = sweep_service_table(tracked)
    if service:
        percall = service.get(("percall_interp", "p50"))
        warm = service.get(("warm_interp", "p50"))
        if percall is None or warm is None:
            print("error: sweep_service_load missing percall/warm p50 entries",
                  file=sys.stderr)
            failures += 1
        else:
            speedup = percall / warm
            status = "ok" if speedup >= args.min_service_warm_speedup else "FAIL"
            print(f"service warm interp: per-call {percall / 1e3:.1f} us/job, "
                  f"warm {warm / 1e3:.1f} us/job, speedup {speedup:.2f}x "
                  f"(required >= {args.min_service_warm_speedup:.2f}x) [{status}]")
            if speedup < args.min_service_warm_speedup:
                failures += 1
        for series in ("warm_interp", "concurrent_interp"):
            p50 = service.get((series, "p50"))
            p99 = service.get((series, "p99"))
            if p50 is None or p99 is None or p50 <= 0.0:
                continue
            ratio = p99 / p50
            status = "ok" if ratio <= args.max_service_p99_ratio else "FAIL"
            print(f"service {series}: p50 {p50 / 1e3:.1f} us, p99 {p99 / 1e3:.1f} us, "
                  f"ratio {ratio:.2f} (allowed <= {args.max_service_p99_ratio:.1f}) "
                  f"[{status}]")
            if ratio > args.max_service_p99_ratio:
                failures += 1

    # Dynamic-width parity: an odd width must cost close to its pinned
    # row-multiple neighbour per lane. Entries arrive through --extra-json
    # (BENCH_dynamic_width.json); the bench drops the orc arm on
    # AMSVP_WITH_LLVM=OFF builds, so each (mode, pair) guards its own
    # entries.
    dynwidth = dynamic_width_table(tracked)
    for mode in sorted({mode for mode, _ in dynwidth}):
        for odd, pinned in ((7, 8), (17, 16), (33, 32)):
            odd_ns = dynwidth.get((mode, odd))
            pinned_ns = dynwidth.get((mode, pinned))
            if odd_ns is None or pinned_ns is None or pinned_ns <= 0.0:
                continue
            ratio = odd_ns / pinned_ns
            status = "ok" if ratio <= args.max_dynamic_width_ratio else "FAIL"
            print(f"dynamic width {mode} x{odd}: {odd_ns:.1f} ns/step/lane vs "
                  f"x{pinned} {pinned_ns:.1f}, ratio {ratio:.2f} "
                  f"(allowed <= {args.max_dynamic_width_ratio:.2f}) [{status}]")
            if ratio > args.max_dynamic_width_ratio:
                failures += 1

    if args.history:
        failures += check_history(tracked, args.history, args.history_tolerance,
                                  args.strict_history)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
