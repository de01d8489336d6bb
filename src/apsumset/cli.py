"""Command-line interface: JSON-lines results with a reproducibility manifest.

Every subcommand writes one JSON object per result line to stdout, sorted
keys, fixed separators, so identical invocations produce byte-identical
result streams regardless of ``--threads``.  Integer fields that can
exceed 64 bits (term values, N, D, limits) are serialized as decimal
strings; exponents and counts stay plain ints.  One exception: every row
that carries the bases ``a`` and ``b`` (progression rows among them) writes
them as JSON numbers at any size, so ``family verify three-term-A --params
k=15000,j=1`` prints a 4,516-digit ``b`` as a bare number.  A manifest
recording the command, the full parameter set including defaults, the
artifact version, wall-clock duration and a digest of the result bytes goes
to stderr, or to ``--manifest FILE``; a FILE that cannot be written is
refused before the command runs.  A FILE that passes that check and still
fails to open (a name too long, a symlink loop) is refused when the
manifest is written, after the rows are printed, with the same exit 2.

Each leaf command binds its runner with ``set_defaults(run=...)``.  A
runner takes the parsed arguments and returns (rows, exit code); ``main``
alone serialises the rows, digests them and writes them.

The parser is built once per process, on the first ``main`` call, and
reused by every later call through ``functools.cache`` on ``build_parser``:
building its roughly fifty arguments costs about 2.5 ms, as much as a small
command itself, and the benchmark runs many commands in one process.  It is
never built at import, so importing the module stays cheap, and a one-shot
run pays for one build.  Nothing else outlives a call: each parse yields a
fresh namespace.

``import apsumset.cli`` loads the package, ``argparse``, ``json``,
``hashlib`` and what those need.  Records are namedtuple classes and the
registry is read by path, so ``dataclasses``, ``inspect``,
``importlib.resources`` and ``typing`` stay unloaded.  On Python 3.11,
without bytecode files, a fresh interpreter takes 66 ms to import it
against 37 ms bare (medians of 30 on a 2-vCPU machine).

Integers of any size are read and written exactly: ``main`` lifts the
4300-digit cap of CPython 3.10.7 and later on int <-> str conversion for
the call and restores the caller's setting when it returns.

Exit codes: 0 success / all-pass, 1 verification mismatch, 2 usage error,
3 search-budget refusal.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time

from . import __version__, classify
from .apsearch import find_progressions, progression
from .catalog import build_pattern, run_all, run_check
from .families import FAMILY_IDS, find_prog3_pairs, generate
from .sumset import SumsetParams, enumerate_up_to, representations
from .sunit import (
    BB5_ALPHA_MAX,
    BB5_BETA_MAX,
    DEFAULT_BUDGET,
    DEWEGER_PRIMES,
    DEWEGER_Z_LIMIT,
    SearchBudgetExceeded,
    bajpai_bennett_5term,
    deweger_3term,
    deze_tijdeman_4term,
    solve_pattern,
    triple_ord_profile,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _param(v):
    """Manifest form of a parameter: integers of 64 bits or more as decimal strings."""
    if isinstance(v, list):
        return [_param(x) for x in v]
    return str(v) if isinstance(v, int) and abs(v) >= 2**63 else v


# one encoder for every row and manifest; json.dumps would build a new one per call, and no row is circular
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def _progression_obj(a: int, b: int, terms, maximal: bool | None = None):
    """The row of a progression given as its (value, reps) terms; N and D are read off the first two."""
    n, d = terms[0][0], terms[1][0] - terms[0][0]
    obj = {
        "a": a,
        "b": b,
        "N": str(n),
        "D": str(d),
        "len": len(terms),
        "terms": [{"value": str(v), "reps": reps} for v, reps in terms],
    }
    if maximal is not None:
        obj["maximal"] = maximal
    return obj


# ---------------------------------------------------------------------------
# Runners, one per leaf command; each returns (rows, exit code)
# ---------------------------------------------------------------------------


def _run_member(args):
    reps = representations(SumsetParams(args.a, args.b), args.n)
    row = {
        "a": args.a,
        "b": args.b,
        "n": str(args.n),
        "member": bool(reps),
        "reps": reps,
    }
    return [row], EXIT_OK


def _run_enum(args):
    rows = [
        {"value": str(v), "reps": reps}
        for v, reps in enumerate_up_to(SumsetParams(args.a, args.b), args.limit)
    ]
    return rows, EXIT_OK


def _run_ap(args):
    params = SumsetParams(args.a, args.b)
    rows = []
    for n, d, maximal in find_progressions(params, args.len, args.limit):
        terms = progression(params, [n + i * d for i in range(args.len)])
        rows.append(_progression_obj(args.a, args.b, terms, maximal))
    return rows, EXIT_OK


def _run_count3(args):
    limits = args.limits
    if any(l2 <= l1 for l1, l2 in zip(limits, limits[1:])):
        raise ValueError("limits must be ascending")
    if limits[0] < 2:
        raise ValueError(f"limit must be >= 2, got {limits[0]}")
    # one search at the largest limit counts at every L, as the maximal flag
    # asks plain membership of N - D and N + 3D and so does not depend on L
    params = SumsetParams(args.a, args.b)
    finals = [(n + 2 * d, maximal) for n, d, maximal in find_progressions(params, 3, limits[-1])]
    rows = [
        {
            "limit": str(lim),
            "windows": sum(f <= lim for f, _ in finals),
            "maximal": sum(m and f <= lim for f, m in finals),
        }
        for lim in limits
    ]
    # a count has stabilized when the last two limits give the same value
    windows, maximal = (len(rows) >= 2 and rows[-1][key] == rows[-2][key] for key in ("windows", "maximal"))
    rows.append({"stabilized_windows": windows, "stabilized_maximal": maximal})
    return rows, EXIT_OK


def _run_sweep(args):
    cfg = classify.SweepConfig(args.a_max, args.b_max, args.limit, args.len)
    # the table lists 5-term progressions, so a row is matched on (a, b, N, D),
    # its window's first five terms.  The functions are looked up in classify
    # when they run, so a wrapper later bound there sees the call.
    found = [
        (*row, classify.theorem1_match(*row[:4]))
        for row in classify.sweep_grid(cfg, args.threads)
    ]
    rows = [
        {
            "a": a,
            "b": b,
            "N": str(n),
            "D": str(d),
            "len": cfg.k,
            "maximal": maximal,
            "class": None if match is None else {"kind": match[0], "k": match[1]},
        }
        for a, b, n, d, maximal, match in found
    ]
    matched = [((a, b, n, d), match) for a, b, n, d, _, match in found if match is not None]
    unclassified = len(found) - len(matched)
    summary = {
        "pairs_swept": cfg.pair_count(),
        "findings": len(found),
        "unclassified": unclassified,
    }
    # witnessed entries are listed for a 5-term sweep, whose windows are the table's entries
    if cfg.k == 5:
        summary["witnessed_sporadics"] = sorted({t for t, (kind, _) in matched if kind == "sporadic"})
        for family in ("family1", "family2"):
            summary[f"witnessed_{family}_k"] = sorted({k for _, (kind, k) in matched if kind == family})
    rows.append(summary)
    # every window of k >= 5 terms starts a 5-term progression the table must
    # classify; below 5 terms most windows lie outside the table by design
    return rows, EXIT_MISMATCH if (cfg.k >= 5 and unclassified) else EXIT_OK


def _run_deweger(args):
    sols = deweger_3term(DEWEGER_PRIMES, args.z_limit)
    rows = [
        {
            "x": str(t.x),
            "y": str(t.y),
            "z": str(t.z),
            "ords": {str(p): e for p, e in triple_ord_profile(t).items()},
        }
        for t in sols
    ]
    rows.append({"count": len(sols), "z_limit": str(args.z_limit)})
    return rows, EXIT_OK


def _run_dt(args):
    sols = deze_tijdeman_4term(args.p, args.q)
    rows = [
        {
            "shape": s.shape,
            "signs": s.signs,
            "exponents": s.exponents,
            "terms": [str(t) for t in s.terms],
        }
        for s in sols
    ]
    rows.append({"count": len(sols), "p": args.p, "q": args.q})
    return rows, EXIT_OK


def _run_bb5(args):
    sols = bajpai_bennett_5term(args.alpha_max, args.beta_max)
    term: dict[int, dict] = {}  # one dict per signed monomial, shared by the rows that hold it
    for assignment, values in sols:
        for v, alpha, beta in zip(values, assignment[::2], assignment[1::2]):
            if v not in term:
                term[v] = {"sign": 1 if v > 0 else -1, "alpha": alpha, "beta": beta, "value": str(abs(v))}
    rows = [{"terms": [term[v] for v in values]} for _, values in sols]
    rows.append({"count": len(sols), "alpha_max": args.alpha_max, "beta_max": args.beta_max})
    return rows, EXIT_OK


def _run_pattern(args):
    try:
        with open(args.pattern_file) as fh:
            spec = json.load(fh)
    except (OSError, RecursionError) as exc:  # a missing or unreadable file, or one nested too deep, is a usage error
        raise ValueError(str(exc)) from None
    pattern, pred = build_pattern(spec)
    sols = solve_pattern(pattern, side_predicate=pred, budget=args.budget)
    rows = [
        {
            "assignment": dict(zip(pattern.variables, assignment)),
            "terms": [str(v) for v in values],
        }
        for assignment, values in sols
    ]
    rows.append({"count": len(sols)})
    return rows, EXIT_OK


def _run_check(args):
    if args.all == (args.id is not None):
        raise ValueError("check needs either an id or --all")
    rows = run_all() if args.all else [run_check(args.id)]
    for row in rows:
        if row["found_count"] > 200:
            del row["found"]
    code = EXIT_OK if all(row["passed"] for row in rows) else EXIT_MISMATCH
    return rows, code


def _parse_params(text: str) -> dict[str, int]:
    """name=value pairs, each value an exact integer in the `_int_arg` grammar."""
    params: dict[str, int] = {}
    if not text:
        return params
    for piece in text.split(","):
        key, _, value = piece.partition("=")
        if not _ or not key:
            raise ValueError(f"malformed parameter {piece!r}; expected name=int")
        if key in params:
            raise ValueError(f"parameter {key!r} given twice")
        try:
            params[key] = _int_arg(value)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"parameter {key!r}: {exc}") from None
    return params


def _run_family_list(args):
    return [{"family": fid} for fid in FAMILY_IDS], EXIT_OK


def _run_family(args):
    """`family verify`.

    A bad parameter, or terms out of progression or outside the sumset,
    raises ValueError (exit 2), so a returned row is verified.
    """
    params, terms = generate(args.family_id, _parse_params(args.params))
    obj = _progression_obj(params.a, params.b, terms)
    obj["family"] = args.family_id
    obj["verified"] = True
    return [obj], EXIT_OK


def _run_prog3_pairs(args):
    rows = [{"a": a, "b": b, "delta1": d1, "delta2": d2} for a, b, d1, d2 in find_prog3_pairs(args.limit)]
    return rows, EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


_INT_FORM = re.compile(r"([0-9]+)(?:[eE]([0-9]+))?")


def _int_arg(text: str) -> int:
    """Exact integer from plain digits or AeB (digits A and B), read as A * 10**B."""
    m = _INT_FORM.fullmatch(text)
    if m is None:
        raise argparse.ArgumentTypeError(f"expected digits or AeB with digit A and B, got {text!r}")
    mantissa, exponent = m.groups()
    return int(mantissa) * 10 ** int(exponent or 0)


def _threads_arg(text: str) -> int:
    n = _int_arg(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _int_list_arg(text: str) -> list[int]:
    return [_int_arg(tok) for tok in text.split(",")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call; every caller shares it, so none may change it."""
    ap = argparse.ArgumentParser(
        prog="apsumset",
        description="Search and verification tools for arithmetic progressions "
        "in sumsets of two geometric progressions.",
    )
    ap.add_argument("--manifest", metavar="FILE", help="write the run manifest to FILE instead of stderr")
    ap.add_argument("--threads", type=_threads_arg, default=os.cpu_count() or 1,
                    help="processes that run a sweep, this one included, at most the CPU count "
                    "(results are independent of this)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", help="membership and representations of n in S_{a,b}")
    p.add_argument("a", type=_int_arg)
    p.add_argument("b", type=_int_arg)
    p.add_argument("n", type=_int_arg)
    p.set_defaults(run=_run_member)

    p = sub.add_parser("enum", help="enumerate S_{a,b} up to a limit")
    p.add_argument("a", type=_int_arg)
    p.add_argument("b", type=_int_arg)
    p.add_argument("--limit", type=_int_arg, required=True)
    p.set_defaults(run=_run_enum)

    p = sub.add_parser("ap", help="k-term arithmetic progressions in S_{a,b}")
    p.add_argument("a", type=_int_arg)
    p.add_argument("b", type=_int_arg)
    p.add_argument("--len", type=_int_arg, required=True)
    p.add_argument("--limit", type=_int_arg, required=True)
    p.set_defaults(run=_run_ap)

    p = sub.add_parser("count3", help="3-term progression counts at a ladder of limits")
    p.add_argument("a", type=_int_arg)
    p.add_argument("b", type=_int_arg)
    p.add_argument("--limits", type=_int_list_arg, required=True, help="comma-separated, e.g. 1e8,1e10,1e12")
    p.set_defaults(run=_run_count3)

    p = sub.add_parser("sweep", help="grid sweep with classification matching")
    p.add_argument("--a-max", type=_int_arg, required=True)
    p.add_argument("--b-max", type=_int_arg, required=True)
    p.add_argument("--len", type=_int_arg, required=True)
    p.add_argument("--limit", type=_int_arg, required=True)
    p.set_defaults(run=_run_sweep)

    p = sub.add_parser("sunit", help="bounded exponential-equation solvers")
    ssub = p.add_subparsers(dest="solver", required=True)
    sp = ssub.add_parser("deweger", help="x + y = z in coprime 13-smooth integers")
    sp.add_argument("--z-limit", type=_int_arg, default=DEWEGER_Z_LIMIT)
    sp.set_defaults(run=_run_deweger)
    sp = ssub.add_parser("dt", help="four-term two-prime shapes, powers <= 2^15")
    sp.add_argument("p", type=_int_arg)
    sp.add_argument("q", type=_int_arg)
    sp.set_defaults(run=_run_dt)
    sp = ssub.add_parser("bb5", help="five-term {2,3}-unit equation")
    sp.add_argument("--alpha-max", type=_int_arg, default=BB5_ALPHA_MAX)
    sp.add_argument("--beta-max", type=_int_arg, default=BB5_BETA_MAX)
    sp.set_defaults(run=_run_bb5)
    sp = ssub.add_parser("pattern", help="generic pattern from a JSON file")
    sp.add_argument("pattern_file")
    sp.add_argument("--budget", type=_int_arg, default=DEFAULT_BUDGET)
    sp.set_defaults(run=_run_pattern)

    p = sub.add_parser("check", help="run registered verification checks")
    p.add_argument("id", nargs="?")
    p.add_argument("--all", action="store_true")
    p.set_defaults(run=_run_check)

    p = sub.add_parser("family", help="constructive progression families")
    fsub = p.add_subparsers(dest="action", required=True)
    fp = fsub.add_parser("list", help="list family identifiers")
    fp.set_defaults(run=_run_family_list)
    fp = fsub.add_parser("verify", help="build a family's progression and check every term")
    fp.add_argument("family_id")
    fp.add_argument("--params", default="", help="comma-separated name=value, e.g. k=3,j=0")
    fp.set_defaults(run=_run_family)
    fp = fsub.add_parser(
        "prog3-pairs", help="base pairs satisfying the prog3 constraint; any limit is cheap (Pell orbits)"
    )
    fp.add_argument("--limit", type=_int_arg, required=True)
    fp.set_defaults(run=_run_prog3_pairs)

    return ap


def _manifest_problem(path: str) -> str | None:
    """Why no manifest can be written to `path`, or None; checked before any search runs."""
    if not path:
        return "empty path"
    if os.path.isdir(path):
        return "is a directory"
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        return f"no such directory {folder}"
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return "not writable"
    return None


def main(argv: list[str] | None = None) -> int:
    # CPython 3.10.7 and later refuse int <-> str conversion beyond 4300 digits;
    # the cap is lifted for the call and the caller's setting restored after
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(cap)


def _main(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    problem = args.manifest is not None and _manifest_problem(args.manifest)
    if problem:
        print(f"error: manifest {args.manifest}: {problem}", file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    try:
        rows, code = args.run(args)
        text = "".join(_dump(row) + "\n" for row in rows)
    except SearchBudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    sys.stdout.flush()
    manifest = {
        "command": args.command,
        "parameters": {
            k: _param(v)
            for k, v in sorted(vars(args).items())
            if k not in ("manifest", "run")
        },
        "version": __version__,
        "duration_s": round(time.perf_counter() - start, 3),
        "result_lines": len(rows),
        "result_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    if args.manifest is not None:
        try:
            with open(args.manifest, "w") as fh:
                fh.write(_dump(manifest) + "\n")
        except OSError as exc:
            print(f"error: manifest {args.manifest}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print(_dump(manifest), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
