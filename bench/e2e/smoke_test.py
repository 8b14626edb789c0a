#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (registered with ctest).

    python3 bench/e2e/smoke_test.py --binary PATH --benchmark BENCHMARK.json
                                    --workdir DIR

Runs every workload of BENCHMARK.json with --smoke (a fixed small op count
on the same code path), then one traced smoke run of small-stream, and
checks that
  * every run exits 0 and reports correct, with fail_frac 0;
  * every metric BENCHMARK.json names is present, finite, in its unit;
  * the traced run dropped no call records and no spans, attributed
    stages for all 36 shape classes, and wrote a loadable Chrome trace.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path


def run(binary, workdir, workload, traced):
    tag = "traced" if traced else "smoke"
    out = workdir / f"{tag}-{workload}.json"
    trace = workdir / f"{tag}-{workload}.trace.json"
    cmd = [binary, "--workload", workload, "--seed", "1", "--smoke",
           "--json", str(out)]
    if traced:
        cmd += ["--traced", "--trace", str(trace)]
    proc = subprocess.run(cmd)
    if proc.returncode != 0 or not out.is_file():
        return None, trace, [f"{tag} {workload}: exit {proc.returncode}"]
    return json.loads(out.read_text()), trace, []


def check_metrics(result, entries, label):
    errors = []
    for entry in entries:
        got = result["metrics"].get(entry["name"])
        if got is None:
            errors.append(f"{label}: {entry['name']} missing")
        elif got["unit"] != entry["unit"]:
            errors.append(f"{label}: {entry['name']} in {got['unit']}, "
                          f"not {entry['unit']}")
        elif got["value"] is None or not math.isfinite(got["value"]):
            errors.append(f"{label}: {entry['name']} is not finite")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        result, _, errs = run(args.binary, workdir, workload, traced=False)
        errors += errs
        if result is None:
            continue
        label = f"smoke {workload}"
        errors += check_metrics(result, spec["end_to_end"], label)
        if not result["correct"] or result["metrics"]["fail_frac"]["value"] != 0:
            errors.append(f"{label}: not correct")

    result, trace, errs = run(args.binary, workdir, "small-stream", traced=True)
    errors += errs
    if result is not None:
        label = "traced small-stream"
        errors += check_metrics(result, spec["per_layer"], label)
        for name in ("obs.callrec_dropped", "obs.trace_dropped_spans"):
            if result["metrics"][name]["value"] != 0:
                errors.append(f"{label}: {name} is not 0")
        classes = result["classes"]
        if len(classes) != 36:
            errors.append(f"{label}: {len(classes)} shape classes, not 36")
        for c in classes:
            shares = [c[k] for k in ("split_share", "pack_share", "mma_share",
                                     "combine_share", "other_share")]
            if not all(math.isfinite(s) and -1e-9 <= s <= 1 for s in shares):
                errors.append(f"{label}: bad stage shares {c}")
        events = json.loads(trace.read_text())["traceEvents"]
        spans = {e["name"] for e in events if e.get("ph") == "X"}
        for name in ("bench.op", "split", "pack", "mma", "combine"):
            if name not in spans:
                errors.append(f"{label}: no '{name}' span in the Chrome trace")

    for error in errors:
        print("smoke_test:", error)
    print("smoke_test:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
