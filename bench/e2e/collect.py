#!/usr/bin/env python3
"""Runs the end-to-end benchmark over several seeds and saves one set file.

    python3 bench/e2e/collect.py --out SET.json [--seeds 1-10]
                                 [--workloads a,b] [--trace 0|1]

Each (seed, workload) run goes through run.py with BENCHMARK.json's
run_seconds; seeds are the outer loop, so slow drift of the machine
touches every workload alike. The set file holds every run's full result
(provenance, all metrics, per-class stage shares) for compare.py.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    runs, failed = [], 0
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(f"{workload} seed {seed}: exit {proc.returncode} "
                  f"{proc.stdout.strip()[:160]}", file=sys.stderr)
            result = (ROOT / ".bench_build" / "e2e" /
                      f"result-{workload}-{seed}-{args.trace}.json")
            if proc.returncode != 0 or not result.is_file():
                failed += 1
            if result.is_file():
                runs.append(json.loads(result.read_text()))
    Path(args.out).write_text(json.dumps(
        {"schema": "egemm-e2e-set/1", "run_seconds": spec["run_seconds"],
         "runs": runs}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
