#!/usr/bin/env python3
"""Build and run the amsvp pipeline benchmark.

    python3 perfbench/run.py --workload sweep_mc --seed 1 --seconds 10 --trace 0

Builds the benchmark (and the library under it, in Release) into the build
directory on first use, then runs one workload. Human-readable lines go to
stdout first; the last stdout line is the JSON result. Build output goes to
stderr. Extra flags (--perturb-reference) are passed to the benchmark.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep_mc", "serve_mix", "platform_oa", "cold_text")
RUN_TIMEOUT_S = 170


def build_root() -> Path:
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return build if build.is_absolute() else ROOT / build


def build(build_dir: Path) -> Path:
    """Configure once, then bring the benchmark binary up to date."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"perfbench: the amsvp library sources are missing under {ROOT}",
              file=sys.stderr)
        return 2

    build_dir = build_root() / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), *extra]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                   text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout)
        return completed.returncode
    sys.stdout.write(completed.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
