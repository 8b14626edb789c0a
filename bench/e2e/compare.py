#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py BASE CHANGE              # verdict per metric
    python3 bench/e2e/compare.py BASE CHANGE --same-code  # gate: sets agree
    python3 bench/e2e/compare.py --self-test

BASE and CHANGE are set files written by collect.py (or single result files
written by egemm_e2e --json). For every end-to-end metric of BENCHMARK.json
and every workload the report gives each side's median and quartiles, the
change's pairwise win fraction (runs paired by seed; ties count for
neither side), and a verdict against the metric's bound:

  improved    the change wins at least 9 of 10 pairs and its median beats
              the base median by more than the base's quartile spread
  regressed   the change's median is worse than the base's by more than
              the bound
  unresolved  not regressed, but a side's quartile spread is wider than
              the bound, and not every change run beats every base run
  unchanged   otherwise

--same-code asserts that two sets of one commit agree: every median within
its bound of the other side's, and every quartile spread within its bound
(set-up time excepted). It exits 1 otherwise.
"""

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(path):
    doc = json.loads(Path(path).read_text())
    return doc["runs"] if "runs" in doc else [doc]


def by_workload(runs):
    """{workload: {seed: result}}, the last run of a seed winning."""
    grouped = {}
    for run in runs:
        grouped.setdefault(run["workload"], {})[run["seed"]] = run
    return grouped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def paired(base, change):
    """Value pairs matched by seed, else in run order."""
    common = sorted(set(base) & set(change))
    if common:
        return [(base[s], change[s]) for s in common]
    return list(zip(base.values(), change.values()))


def verdict(base, change, better, bound):
    """base/change: {seed: value}. Returns (verdict, win fraction)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = paired(base, change)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    a, b = list(base.values()), list(change.values())
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    gain = sign * (med_b - med_a)
    if win_frac >= 0.9 and gain > q3 - q1:
        return "improved", win_frac
    if -gain > bound * abs(med_a):
        return "regressed", win_frac
    every_better = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not every_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def metric_values(runs, metric):
    return {seed: run["metrics"][metric]["value"] for seed, run in runs.items()
            if metric in run["metrics"]}


def compare(base_runs, change_runs, spec, same_code=False, out=sys.stdout):
    """Prints the report; returns the number of failed (metric, workload)
    rows: regressions, or disagreements in same-code mode."""
    base, change = by_workload(base_runs), by_workload(change_runs)
    failures = 0
    for side, runs in (("base", base), ("change", change)):
        for workload, seeds in runs.items():
            bad = [s for s, r in seeds.items() if not r["correct"]]
            if bad:
                print(f"{side}: {workload} failed correctness on seeds {bad}",
                      file=out)
                failures += 1
    header = (f"{'metric':<12} {'workload':<14} {'base q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'Δmed':>7} {'win':>5}  verdict")
    print(header, file=out)
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        for workload in spec_workloads(spec, base, change):
            a = metric_values(base.get(workload, {}), name)
            b = metric_values(change.get(workload, {}), name)
            if not a or not b:
                print(f"{name:<12} {workload:<14} missing on one side",
                      file=out)
                failures += 1
                continue
            va, vb = list(a.values()), list(b.values())
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / abs(qa[1])
            if same_code:
                spreads_ok = (name == "setup_s" or
                              max(spread(va), spread(vb)) <= bound)
                ok = abs(delta) <= bound and spreads_ok
                result, win = ("agree" if ok else "DISAGREE"), 0.0
                failures += 0 if ok else 1
            else:
                result, win = verdict(a, b, entry["better"], bound)
                failures += result == "regressed"
            print(f"{name:<12} {workload:<14} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in qb):>30} "
                  f"{delta:>+7.1%} {win:>5.2f}  {result} "
                  f"(bound {bound:.0%}, spread {spread(va):.1%}"
                  f"/{spread(vb):.1%})", file=out)
    return failures


def spec_workloads(spec, *sides):
    names = [w["name"] for w in spec["workloads"]]
    seen = {w for side in sides for w in side}
    return [n for n in names if n in seen]


def self_test():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "rate", "better": "higher", "bound": 0.07},
                           {"name": "lat", "better": "lower", "bound": 0.10}]}
    rng = random.Random(1)

    def make(rate, lat, jitter=None):
        jitter = jitter or [1 + rng.gauss(0, 0.005) for _ in range(20)]
        return [{"workload": "w", "seed": s, "correct": True,
                 "metrics": {"rate": {"value": rate * jitter[s - 1]},
                             "lat": {"value": lat * jitter[s + 9]}}}
                for s in range(1, 11)]

    # Quartile spread 30%, identical medians on both sides.
    wide = [0.7, 0.8, 0.9, 1.0, 1.0, 1.0, 1.0, 1.1, 1.2, 1.3] * 2

    class Sink:
        def write(self, _):
            pass

    def verdicts(base, change):
        a, b = by_workload(base)["w"], by_workload(change)["w"]
        return {m: verdict(metric_values(a, m), metric_values(b, m), better,
                           bound)[0]
                for m, better, bound in (("rate", "higher", 0.07),
                                         ("lat", "lower", 0.10))}

    base = make(100, 1.0)
    def both(v):
        return {"rate": v, "lat": v}

    checks = [
        (verdicts(base, make(100, 1.0)), both("unchanged")),
        (verdicts(base, make(120, 0.8)), both("improved")),
        (verdicts(base, make(80, 1.2)), both("regressed")),
        (verdicts(make(100, 1.0, wide), make(100, 1.0, wide[::-1])),
         both("unresolved")),
    ]
    ok = all(got == want for got, want in checks)
    for got, want in checks:
        if got != want:
            print(f"self-test: got {got}, want {want}")
    ok &= compare(base, make(100, 1.0), spec, same_code=True, out=Sink()) == 0
    ok &= compare(base, make(110, 1.0), spec, same_code=True, out=Sink()) == 1
    ok &= compare(base, make(80, 1.0), spec, out=Sink()) == 1
    failing = make(100, 1.0)
    failing[3]["correct"] = False
    ok &= compare(base, failing, spec, same_code=True, out=Sink()) == 1
    print("self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of egemm_e2e results.")
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--same-code", action="store_true")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.change:
        parser.error("BASE and CHANGE are required")
    spec = json.loads(Path(args.benchmark).read_text())
    failures = compare(load_runs(args.base), load_runs(args.change), spec,
                       same_code=args.same_code)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
