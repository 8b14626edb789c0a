#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is compiled from the sources beside this directory into
.bench_build/e2e (configured once, rebuilt incrementally). The program's
own summary goes to stderr; the last line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric named in BENCHMARK.json (--trace 0), or every
per-layer metric from the traced run (--trace 1). The full result, with
provenance and per-shape-class stage shares, is kept in .bench_build/e2e.
Exit status: 0 when every op and every correctness check passed, nonzero
otherwise (no result line is printed when the benchmark could not run).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "egemm_e2e"
DEADLINE_S = 175  # a run must end within 180 s


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the library sources are missing: expected CMakeLists.txt and "
             f"src/ in {ROOT}")
    cache = BUILD / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n"
    if cache.is_file() and home not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for a checkout at another path
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "egemm_e2e",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            status = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if status.returncode:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="window length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    seconds = args.seconds or spec["run_seconds"]
    build()

    tag = f"{args.workload}-{args.seed}-{args.trace}"
    result_path = BUILD / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--duration-s", str(seconds), "--json", str(result_path)]
    if args.trace:
        trace_path = BUILD / f"trace-{args.workload}.json"
        cmd += ["--traced", "--trace", str(trace_path)]
    try:
        left = DEADLINE_S - (time.monotonic() - start)
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish in time")
    if not result_path.is_file():
        fail(f"the benchmark exited with {proc.returncode} and no result")
    result = json.loads(result_path.read_text())

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            fail(f"metric {name} is missing or not in {unit}: {got}")
        if got["value"] is None or not math.isfinite(got["value"]):
            fail(f"metric {name} is not finite")
        metrics[name] = {"value": got["value"], "unit": unit}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
