#!/usr/bin/env python3
"""Benchmark for the apsumset CLI: time to a verified result, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ``src/``.  A run
is a closed loop with one client.  It splits ``--seconds`` over six fresh
interpreters in turn (one for a traced run); each measures its set-up time
(interpreter start until ``apsumset.cli`` is imported), then runs the
workload's commands (workloads.py) through ``apsumset.cli.main(argv)`` in
passes until its share of the time is spent.
Every result line is rechecked with exact integers (checks.py); a failed
recheck, a pin mismatch or an unexpected exit code marks the command failed.

``--trace 0`` reports the end-to-end metrics: for the pass times, the total
over passes relative to the total time of the reference loops run after
each pass (reference.py); the median over interpreters for set-up and peak
RSS.
``--trace 1`` instead alternates untraced and traced passes (spans.py) and
reports the per-layer metrics (layers.py), with each layer's measured share
of the traced wall time printed next to predictions.json.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A run record with every command's argv, the versions and the
per-pass samples is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

import checks
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
# Untraced runs split --seconds over PROCESSES fresh interpreters in turn,
# so that set-up and peak RSS are sampled several times, spread across the
# run.  Each interpreter runs at least one pass.
PROCESSES = 6
HARD_CAP_S = 140.0  # start no further interpreter past this, so a run ends within 180 s
# Pass times relative to the reference loops run after each pass: the
# metric, and the per-pass samples in seconds it is the ratio of.
RELATIVE = {"wall_rel": ("wall_s", "ref_wall_s"), "cpu_rel": ("cpu_s", "ref_cpu_s")}
# The statistic a run reports for each end-to-end metric.  A relative one
# is total pass time over total reference time, which weighs every second
# alike where a mean of per-pass ratios would be swayed by the passes whose
# short reference loop happened to hit a fast or slow spell.  Set-up and RSS
# have one sample per interpreter and keep the median.
RUN_STATISTIC = {"wall_rel": "ratio", "cpu_rel": "ratio", "setup_s": "median", "peak_rss_mib": "median"}
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def spawn(tmp: str, tag: str, extra: list[str]) -> dict:
    """Start child.py in a fresh interpreter and return its JSON report."""
    out = os.path.join(tmp, f"{tag}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, repr(t0), out, *extra],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{tag} exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchError(f"{tag} failed (exit {proc.returncode}): {err.decode()[-2000:]}")
    return _load(out)


def describe(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"mean": statistics.fmean(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _correctness(cmds, traced_cmds, passes, outputs, registry, pins):
    """(commands attempted, failure records) over every command of every pass."""
    line_errs = [checks.check_lines(c, out, registry) for c, out in zip(cmds, outputs)]
    first = [rec["stdout_sha256"] for rec in passes[0]["commands"]]
    attempted, failures = 0, []
    for pi, p in enumerate(passes):
        cl = cmds if p["argv_set"] == "normal" else traced_cmds
        for i, (c, rec) in enumerate(zip(cl, p["commands"])):
            attempted += 1
            errs = checks.check_record(c, rec, pins)
            if rec["code"] == 0:
                errs += line_errs[i] if rec["stdout_sha256"] == first[i] else ["stdout differs from the first pass"]
            if errs:
                failures.append({"pass": pi, "argv": list(c.argv), "errors": errs[:20]})
    return attempted, failures


def _layer_metrics(cmds, passes, span_log, outputs, registry):
    """Per-layer metrics plus the measured layer shares of traced wall time."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"] and p["argv_set"] == "traced"]
    untraced = untraced or [p for p in passes if not p["traced"]]
    normal = [p for p in passes if p["argv_set"] == "normal"]
    per_pass = [layers.span_metrics(log["spans"], sorted(registry)) for log in span_log]
    m = layers.median_of(per_pass)
    m.update(layers.work_counts(cmds, outputs, registry))
    m["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in untraced)
    )
    # Pool overhead: the untraced multi-process sweep against the untraced
    # single-process one split over the same number of workers.  Traced job
    # times would carry the tracing cost into this difference.
    m["classify.pool_overhead_s"] = 0.0
    for i, c in enumerate(cmds):
        if c.kind == "sweep":
            pooled = statistics.median(p["commands"][i]["wall_s"] for p in normal)
            serial = statistics.median(p["commands"][i]["wall_s"] for p in untraced)
            m["classify.pool_overhead_s"] += pooled - serial / c.args["threads"]
    for layer in layers.LAYERS:
        m[f"{layer}.share"] = statistics.median(
            pm[f"{layer}.self_s"] / passes[log["pass"]]["wall_s"] for pm, log in zip(per_pass, span_log)
        )
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "apsumset", "cli.py")):
        raise BenchError(f"no program source at {SRC}/apsumset; run from the repository root")
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    registry = {e["id"]: e for e in _load(os.path.join(SRC, "apsumset", "data", "checks.json"))["checks"]}
    pins = _load(os.path.join(HERE, "pins.json"))
    cmds = workloads.commands(workload, seed)
    traced_cmds = workloads.traced_commands(cmds)
    unpinned = [c.key for c in cmds if c.key not in pins]
    if seed == workloads.DEFAULT_SEED and unpinned:
        raise BenchError(f"pins.json has no digest for default-seed commands {unpinned}")
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)
    try:
        reports, durations = [], []
        begin = time.monotonic()
        count = 1 if trace else PROCESSES
        for i in range(count):
            elapsed = time.monotonic() - begin
            if durations and elapsed + statistics.median(durations) > HARD_CAP_S:
                break
            share = max(0.0, seconds - elapsed) / (count - i)
            work = os.path.join(tmp, str(i))
            os.mkdir(work)
            reports.append(spawn(work, "child", ["trace" if trace else "run", workload, str(seed), repr(share),
                                                 work]))
            durations.append(time.monotonic() - begin - elapsed)
        outputs = []
        for i in range(len(cmds)):
            with open(os.path.join(tmp, "0", f"out{i}.txt"), "rb") as fh:
                outputs.append(fh.read())
        span_log = _load(reports[0]["spans_file"]) if trace else []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for r in reports:
        if not os.path.realpath(r["apsumset_file"]).startswith(os.path.realpath(SRC) + os.sep):
            raise BenchError(f"apsumset was imported from {r['apsumset_file']}, not from {SRC}")

    passes = [p for r in reports for p in r["passes"]]
    attempted, failures = _correctness(cmds, traced_cmds, passes, outputs, registry, pins)
    normal = [p for p in passes if p["argv_set"] == "normal"]
    samples = {
        "setup_s": [r["setup_s"] for r in reports],
        "peak_rss_mib": [r["peak_rss_kib"] / 1024 for r in reports],
    }
    if not trace:
        for name, (num, den) in RELATIVE.items():
            samples[num] = [p[num] for p in normal]
            samples[den] = [p[den] for p in normal]
            samples[name] = [a / b for a, b in zip(samples[num], samples[den])]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values = _layer_metrics(cmds, passes, span_log, outputs, registry)
        shown = {d["name"]: {"value": values[d["name"]]} for d in declared}
    else:
        shown = {d["name"]: describe(samples[d["name"]]) for d in declared}
        for name, (num, den) in RELATIVE.items():
            shown[name]["ratio"] = math.fsum(samples[num]) / math.fsum(samples[den])
        for d in declared:
            shown[d["name"]]["value"] = shown[d["name"]][RUN_STATISTIC[d["name"]]]
    for d in declared:
        shown[d["name"]]["unit"] = d["unit"]

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": reports[0]["nproc"],
        "python": reports[0]["python"],
        "numpy": numpy.__version__,
        "apsumset_file": os.path.relpath(reports[0]["apsumset_file"], ROOT),
        "commands": [list(c.argv) for c in cmds],
        "traced_commands": [list(c.argv) for c in traced_cmds],
        "passes": [
            {"argv_set": p["argv_set"], "traced": p["traced"], "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
             "ref_wall_s": p.get("ref_wall_s"), "ref_cpu_s": p.get("ref_cpu_s"),
             "command_wall_s": [r["wall_s"] for r in p["commands"]],
             "result_sha256": [r["stdout_sha256"] for r in p["commands"]]}
            for p in passes
        ],
        "samples": samples,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "metrics": shown,
    }
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"), "w") as fh:
            json.dump(span_log, fh)
    return record


def print_report(record: dict) -> None:
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']} error_rate={record['error_rate']:.4f} "
          f"nproc={record['nproc']} python={record['python']} numpy={record['numpy']}")
    for f in record["failures"][:10]:
        print(f"  FAILED pass {f['pass']}: {' '.join(f['argv'])}: {'; '.join(f['errors'][:3])}")
    for name, m in record["metrics"].items():
        if "median" in m:
            stat = RUN_STATISTIC[name]
            median = "" if stat == "median" else f"  median {m['median']:.6g}"
            print(f"  {name:<14} {m['unit']:<6} {stat} {m['value']:.6g}{median}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
        else:
            print(f"  {name:<40} {m['unit']:<6} {m['value']:.6g}")
    if not record["trace"]:
        raw = record["samples"]
        print("  in seconds, mean per pass: "
              + "  ".join(f"{k} {statistics.fmean(raw[k]):.6g}" for pair in RELATIVE.values() for k in pair))
    else:
        predicted = _load(os.path.join(HERE, "predictions.json"))[record["workload"]]
        print("  layer share of traced wall_s: predicted range | measured")
        for layer in layers.LAYERS:
            lo, hi = predicted[layer]
            got = record["metrics"][f"{layer}.share"]["value"]
            verdict = "ok" if lo <= got <= hi else "OUTSIDE"
            print(f"    {layer:<9} [{lo:.2f}, {hi:.2f}] | {got:.3f}  {verdict}")


def result_line(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in record["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=_load(os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for r in records:
        print_report(r)
    if args.workload == "all":
        print(json.dumps({r["workload"]: result_line(r) for r in records}))
    else:
        print(json.dumps(result_line(records[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
