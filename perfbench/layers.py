"""Per-layer metrics: self times from the traced spans, work counts from outside.

Times are span self times (duration minus the time child spans cover)
summed over the functions each metric names, except that
``catalog.check.<id>_s``, ``cli.<command>_s`` and the ``classify.job_s_*``
pair cover whole calls.
Counts are computed from the commands' inputs and outputs with the
independent tables in ``checks``, so they repeat exactly from run to run.
"""

from __future__ import annotations

import bisect
import json
import statistics
from collections import defaultdict

import numpy as np

import checks
from spans import LAYERS, function_of, self_times

DEFAULT_BUDGET = 50_000_000  # solve_pattern's default search budget, used by `check`
CLI_TIMED = ("ap", "sunit", "check", "sweep", "family")
COUNT_METRICS = (
    "apsearch.pairs_scanned", "apsearch.windows", "apsearch.window_yield", "sumset.values",
    "classify.pairs", "classify.findings", "classify.unclassified",
    "numutil.smooth_count", "sunit.deweger_pairs_masked", "sunit.deweger_solutions", "sunit.deweger_yield",
    "sunit.bb5_values", "sunit.bb5_half_sums", "sunit.bb5_probes", "sunit.bb5_solutions",
    "sunit.dt_box", "sunit.pattern_box", "sunit.pattern_budget_share",
    "catalog.recheck_failures", "cli.result_lines", "cli.result_bytes",
)

SELF_TIME_METRICS = {
    "apsearch.scan_s": ("apsearch.find_progressions",),
    "sumset.value_set_s": ("sumset.value_set",),
    "sumset.element_s": ("sumset.element", "sumset.representations"),
    "sumset.contains_s": ("sumset.contains",),
    "classify.sweep_s": ("classify.verify_theorem1", "classify.sweep_grid", "classify.theorem1_match"),
    "families.generate_s": ("families.generate", "families.family_params", "families.minimal_power_base"),
    "families.verify_s": ("families.verify",),
    "families.prog3_pairs_s": ("families.find_prog3_pairs",),
    "numutil.smooth_enumerate_s": ("numutil.smooth_enumerate",),
    "sunit.deweger_s": ("sunit.deweger_3term", "sunit.triple_ord_profile"),
    "sunit.bb5_s": ("sunit.bajpai_bennett_5term",),
    "sunit.dt_s": ("sunit.deze_tijdeman_4term",),
    "sunit.pattern_s": ("sunit.solve_pattern", "sunit.has_vanishing_subsum"),
    "sunit.pillai_s": ("sunit.pillai_difference_table",),
    "catalog.lemma21_solve_s": ("catalog.lemma21_solve",),
    "cli.serialise_s": ("cli.main",),
}


def span_metrics(spans: list[list], check_ids: list[str]) -> dict[str, float]:
    """Span-derived metrics of one traced pass."""
    own = self_times(spans)
    funcs = [function_of(s) for s in spans]
    dur = [s[3] - s[2] for s in spans]
    by_func: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    for f, s, t in zip(funcs, spans, own):
        by_func[f] += t
        by_layer[s[1]] += t
    m = {name: sum(by_func[f] for f in fs) for name, fs in SELF_TIME_METRICS.items()}
    m.update({f"{layer}.self_s": by_layer[layer] for layer in LAYERS})

    jobs = [d for s, d in zip(spans, dur) if s[0] == "classify.find_progressions"]
    m["classify.job_s_total"] = sum(jobs)
    m["classify.job_s_max"] = max(jobs, default=0.0)
    m["sumset.element_calls"] = funcs.count("sumset.element")
    m["sumset.contains_calls"] = funcs.count("sumset.contains")
    for cid in check_ids:
        m[f"catalog.check.{cid}_s"] = sum(d for f, s, d in zip(funcs, spans, dur) if f == "catalog.run_check" and s[5] == cid)
    for cmd in CLI_TIMED:
        m[f"cli.{cmd}_s"] = sum(d for f, s, d in zip(funcs, spans, dur) if f == "cli.main" and s[5] == cmd)
    return m


def _pairs_scanned(a: int, b: int, k: int, limit: int) -> tuple[int, int]:
    """(pairs the scan tests, values enumerated) for one find_progressions call.

    The scan's inner loop for s0 = ordered[i] runs over s1 > s0 while
    (k-1) s1 <= limit + (k-2) s0, so its length is found by bisection.
    """
    ordered = checks.sumset_values(a, b, limit)
    pairs = 0
    for i, s0 in enumerate(ordered):
        hi = bisect.bisect_right(ordered, (limit + (k - 2) * s0) // (k - 1))
        pairs += max(0, hi - i - 1)
    return pairs, len(ordered)


def _deweger_pairs_masked(z_limit: int) -> tuple[int, int]:
    """(ordered (x, y) pairs the de Weger loop masks, smooth numbers <= z_limit)."""
    arr = np.array(checks.smooth_numbers(z_limit), dtype=np.int64)
    xs = arr[2 * arr <= z_limit]
    hi = np.searchsorted(arr, z_limit - xs, side="right")
    return int(np.maximum(hi - np.arange(len(xs)), 0).sum()), len(arr)


def _bb5_values(alpha_max: int, beta_max: int) -> int:
    return sum(
        1
        for b in range(beta_max + 1)
        for a in range(alpha_max + 1)
        if 2**a * 3**b <= checks.BB5_VALUE_BOUND
    )


def _max_exp(base: int, bound: int) -> int:
    e = 0
    while base ** (e + 1) <= bound:
        e += 1
    return e


def work_counts(cmds, outputs: list[bytes], registry: dict) -> dict[str, float]:
    """Counts from the inputs and the first pass's outputs."""
    c: dict[str, float] = dict.fromkeys(COUNT_METRICS, 0)
    scans: list[tuple[int, int, int, int]] = []
    for cmd, out in zip(cmds, outputs):
        lines = [json.loads(x) for x in out.decode().splitlines()]
        c["cli.result_lines"] += len(lines)
        c["cli.result_bytes"] += len(out)
        a = cmd.args
        if cmd.kind == "ap":
            scans.append((a["a"], a["b"], a["k"], a["limit"]))
            c["apsearch.windows"] += len(lines)
        elif cmd.kind == "sweep":
            grid = [(x, y) for x in range(2, a["a_max"] + 1) for y in range(x + 1, a["b_max"] + 1)]
            scans += [(x, y, a["k"], a["limit"]) for x, y in grid]
            c["apsearch.windows"] += len(lines) - 1
            c["classify.pairs"] += len(grid)
            c["classify.findings"] += lines[-1]["findings"]
            c["classify.unclassified"] += lines[-1]["unclassified"]
        elif cmd.kind == "deweger":
            masked, smooth = _deweger_pairs_masked(a["z_limit"])
            c["sunit.deweger_pairs_masked"] += masked
            c["numutil.smooth_count"] += smooth
            c["sunit.deweger_solutions"] += lines[-1]["count"]
        elif cmd.kind == "bb5":
            n = _bb5_values(a["alpha_max"], a["beta_max"])
            c["sunit.bb5_values"] += n
            c["sunit.bb5_half_sums"] += 4 * n * (n - 1) // 2
            c["sunit.bb5_probes"] += 8 * n * (n - 1) * (n - 2) // 6
            c["sunit.bb5_solutions"] += lines[-1]["count"]
        elif cmd.kind == "dt":
            xm, ym = _max_exp(a["p"], checks.DT_POWER_BOUND), _max_exp(a["q"], checks.DT_POWER_BOUND)
            c["sunit.dt_box"] += 2 * (xm + 1) ** 2 * (ym + 1) ** 2 * 8
        elif cmd.kind == "check":
            boxes = []
            for entry in registry.values():
                spec = entry["solver"]
                if spec["kind"] == "pattern":
                    box = 1
                    for _, bound in spec["bounds"]:
                        box *= bound + 1
                    boxes.append(box)
            c["sunit.pattern_box"] += sum(boxes)
            c["sunit.pattern_budget_share"] = max(boxes, default=0) / DEFAULT_BUDGET
            c["catalog.recheck_failures"] += sum(len(x["expected_recheck_failures"]) for x in lines)
    for scan in scans:
        pairs, values = _pairs_scanned(*scan)
        c["apsearch.pairs_scanned"] += pairs
        c["sumset.values"] += values
    c["apsearch.window_yield"] = c["apsearch.windows"] / c["apsearch.pairs_scanned"] if c["apsearch.pairs_scanned"] else 0
    c["sunit.deweger_yield"] = (
        c["sunit.deweger_solutions"] / c["sunit.deweger_pairs_masked"] if c["sunit.deweger_pairs_masked"] else 0
    )
    return c


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
