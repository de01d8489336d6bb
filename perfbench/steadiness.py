#!/usr/bin/env python3
"""Steadiness self-check: two independent sets of runs on the same code.

    python3 perfbench/steadiness.py

For each workload in BENCHMARK.json, runs ``run.py --trace 0`` for
``run_seconds``, RUNS times per set with a fresh seed each time (set 1
takes seeds 1..RUNS, set 2 the next ones), alternating between the sets.
For every end-to-end metric it prints each set's median and spread
(first-to-third quartile distance over the median), the spread over all
runs, and whether the two medians agree within the metric's bound in
BENCHMARK.json.  A metric is steady when its
spread is below a third of its bound; set-up time is exempt from the
spread rule but not from the agreement rule.  The report also goes to
``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 5  # runs per set


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets: list[list[dict]] = [[], []]
        for r in range(RUNS):
            for s in (0, 1):
                res = one_run(workload, 1 + s * RUNS + r, spec["run_seconds"])
                sets[s].append(res)
                print(f"{workload} set {s + 1} run {r + 1}: correct={res['correct']} failed={res['failed']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            med = [statistics.median(v) for v in vals]
            change = med[1] / med[0] - 1
            total = spread(vals[0] + vals[1])
            rows[name] = {
                "unit": m["unit"], "bound": bound, "medians": med, "change": change,
                "spreads": [spread(v) for v in vals], "spread_all": total,
                "agree": abs(change) <= bound,
                "steady": name == "setup_s" or total < bound / 3,
            }
        failed = sum(r["failed"] for runs in sets for r in runs)
        report[workload] = {"failed": failed, "metrics": rows}

    print()
    print(f"{'workload':<15} {'metric':<13} {'median 1':>10} {'median 2':>10} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload, rep in report.items():
        for name, r in rep["metrics"].items():
            verdict = ("agree" if r["agree"] else "DISAGREE") + (", steady" if r["steady"] else ", NOT steady")
            print(f"{workload:<15} {name:<13} {r['medians'][0]:>10.5g} {r['medians'][1]:>10.5g} "
                  f"{r['change']:>+8.3f} {r['spread_all']:>7.3f} {r['bound']:>6.2f}  {verdict}")
        print(f"{workload:<15} failed commands: {rep['failed']}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    ok = all(r["agree"] and r["steady"] for rep in report.values() for r in rep["metrics"].values())
    return 0 if ok and not any(rep["failed"] for rep in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
