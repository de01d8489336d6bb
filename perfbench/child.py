"""The measured process: set up, then run a workload's commands in passes.

Usage (started by run.py, in a fresh interpreter each time):

    python3 child.py T0 OUT_JSON MODE WORKLOAD SEED SECONDS TMP_DIR

T0 is the parent's ``time.monotonic()`` just before it started this
interpreter; set-up time runs from T0 until ``apsumset.cli`` is imported,
with whatever that import pulls in and nothing else.  The process then
runs at least one round and starts no further round that would end after
SECONDS.  In MODE ``run`` a round is one untraced pass followed by the
workload's reference loop (reference.py); in MODE ``trace``
it is an untraced pass, an untraced pass with the traced command list
(when that differs) and a traced pass.  Every command runs through
``apsumset.cli.main(argv)`` with stdout and stderr captured and the
manifest written to a file in TMP_DIR.
"""

import sys
import time

import apsumset.cli

T_IMPORTED = time.monotonic()

import contextlib  # noqa: E402  (after the set-up timestamp)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HARD_CAP_S = 140.0  # stop starting passes so the run ends well within 180 s
CLI_COMMANDS = ("member", "enum", "ap", "count3", "sweep", "sunit", "check", "family")


def cli_command(argv) -> str:
    return next(a for a in argv if a in CLI_COMMANDS)


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_pass(cmds, tmp: str, keep: bool, rec: spans.Recorder | None = None,
             argv_set: str = "normal") -> dict:
    """Run every command once; time from the first call to the last manifest."""
    captured = []
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    t_start = time.perf_counter()
    for i, c in enumerate(cmds):
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        idx = rec.open("cli.main", "cli", cli_command(c.argv)) if rec else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = apsumset.cli.main(["--manifest", os.path.join(tmp, f"m{i}.json"), *c.argv])
        except Exception as exc:  # a crash is a failed command, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        finally:
            if rec:
                rec.close(idx)
        captured.append((time.perf_counter() - t, code, out, err))
    wall = time.perf_counter() - t_start
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0

    records = []
    for i, (dt, code, out, err) in enumerate(captured):
        blob = out.getvalue().encode()
        mpath = os.path.join(tmp, f"m{i}.json")
        manifest = None
        if os.path.exists(mpath):
            with open(mpath) as fh:
                manifest = json.load(fh)
            os.remove(mpath)
        if keep:
            with open(os.path.join(tmp, f"out{i}.txt"), "wb") as fh:
                fh.write(blob)
        records.append({
            "wall_s": dt,
            "code": code,
            "stdout_sha256": hashlib.sha256(blob).hexdigest(),
            "stdout_bytes": len(blob),
            "stdout_lines": blob.count(b"\n"),
            "manifest": manifest,
            "stderr": err.getvalue()[-2000:],
        })
    return {"wall_s": wall, "cpu_s": cpu, "traced": rec is not None, "argv_set": argv_set,
            "commands": records}


def _peak_rss_kib() -> int:
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def main() -> None:
    t0, out_path, mode, workload, seed, seconds, tmp = sys.argv[1:8]
    setup_s = T_IMPORTED - float(t0)
    cmds = workloads.commands(workload, int(seed))
    traced = workloads.traced_commands(cmds)
    passes: list[dict] = []
    span_log: list[dict] = []
    rounds: list[float] = []
    peak_rss_kib = None
    begin = time.monotonic()
    while True:
        t = time.monotonic()
        if mode == "run":
            passes.append(run_pass(cmds, tmp, keep=not passes))
            if peak_rss_kib is None:
                peak_rss_kib = _peak_rss_kib()  # before the reference loop allocates
            passes[-1]["ref_wall_s"], passes[-1]["ref_cpu_s"] = reference.run(workload)
        else:
            # Alternate the order within a round so that neither the traced
            # nor the untraced passes always run first in the process.
            order = ["normal", "untraced", "traced"]
            for kind in order if len(rounds) % 2 == 0 else order[::-1]:
                if kind == "normal":
                    passes.append(run_pass(cmds, tmp, keep=not passes))
                elif kind == "untraced" and [c.argv for c in traced] != [c.argv for c in cmds]:
                    passes.append(run_pass(traced, tmp, keep=False, argv_set="traced"))
                elif kind == "traced":
                    rec = spans.Recorder()
                    rec.install()
                    try:
                        passes.append(run_pass(traced, tmp, keep=False, rec=rec, argv_set="traced"))
                    finally:
                        rec.uninstall()
                    span_log.append({"pass": len(passes) - 1, "spans": rec.spans})
        rounds.append(time.monotonic() - t)
        if peak_rss_kib is None:
            # The high-water mark can grow with each further pass, and how
            # many passes fit varies, so take it after the first round.
            peak_rss_kib = _peak_rss_kib()
        if time.monotonic() - begin + statistics.median(rounds) > min(float(seconds), HARD_CAP_S):
            break
    result = {
        "setup_s": setup_s,
        "apsumset_file": apsumset.cli.__file__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": passes,
        "peak_rss_kib": peak_rss_kib,
    }
    if span_log:
        result["spans_file"] = os.path.join(tmp, "spans.json")
        with open(result["spans_file"], "w") as fh:
            json.dump(span_log, fh)
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
