"""Exact rechecks of every result line, independent of the program's code.

Membership in S_{a,b} is decided here by a table of a^x + b^y built with
Python ints, and by an exponent guess from ``math.log`` that is then
confirmed exactly; floats only propose, exact integer equality decides.
Each ``check_*`` function returns a list of failure reasons; an empty list
means the command's output passed.
"""

from __future__ import annotations

import json
import math
from math import gcd

# The paper's nine sporadic 5-term tuples (a, b, N, D).
SPORADIC_5TERM = frozenset({
    (2, 3, 5, 2), (2, 3, 7, 6), (2, 3, 9, 8), (2, 3, 17, 24), (2, 3, 41, 24),
    (2, 5, 5, 8), (2, 9, 17, 24), (2, 9, 41, 24), (3, 4, 7, 6),
})
DEWEGER_PRIMES = (2, 3, 5, 7, 11, 13)
BB5_VALUE_BOUND = 3**12
DT_POWER_BOUND = 2**15

# Known result digests.  A command whose argv is listed here must reproduce
# the digest exactly (see pins.json); the prefix is the published baseline
# digest the pin must agree with.
BASELINE_PREFIXES = {"sunit dt 2 3": "d088cc2e"}


def power_exp(n: int, base: int) -> int | None:
    """e with base**e == n, or None; the float log only proposes e."""
    if n < 1:
        return None
    guess = round(math.log(n, base)) if n > 1 else 0
    for e in (guess - 1, guess, guess + 1):
        if e >= 0 and base**e == n:
            return e
    return None


def reps(a: int, b: int, n: int) -> list[list[int]]:
    """All [x, y] with a^x + b^y == n, sorted by x."""
    out = []
    ax, x = 1, 0
    while ax < n:
        y = power_exp(n - ax, b)
        if y is not None:
            out.append([x, y])
        ax *= a
        x += 1
    return out


def sumset_values(a: int, b: int, limit: int) -> list[int]:
    """Sorted distinct a^x + b^y <= limit."""
    vals = set()
    ax = 1
    while ax + 1 <= limit:
        by = 1
        while ax + by <= limit:
            vals.add(ax + by)
            by *= b
        ax *= a
    return sorted(vals)


def smooth_numbers(limit: int, primes=DEWEGER_PRIMES) -> list[int]:
    out = [1]
    for p in primes:
        grown = []
        for v in out:
            while v <= limit:
                grown.append(v)
                v *= p
        out = grown
    return sorted(out)


def _lines(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.decode().splitlines()]


def _ordp(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _smooth(n: int) -> bool:
    for p in DEWEGER_PRIMES:
        while n % p == 0:
            n //= p
    return n == 1


def _progression(obj: dict, a: int, b: int, k: int, limit: int | None, errs: list[str]) -> tuple[int, int]:
    """Shared recheck of a progression object with witnessed terms."""
    n, d = int(obj["N"]), int(obj["D"])
    if (obj["a"], obj["b"], obj["len"]) != (a, b, k):
        errs.append(f"progression header {obj['a'], obj['b'], obj['len']} != {(a, b, k)}")
    if d < 1 or n < 2:
        errs.append(f"bad (N, D) = ({n}, {d})")
    terms = obj["terms"]
    if len(terms) != k:
        errs.append(f"{len(terms)} terms, expected {k}")
    for i, t in enumerate(terms):
        v = int(t["value"])
        if v != n + i * d:
            errs.append(f"term {i} = {v} is not N + {i}D")
        if t["reps"] != reps(a, b, v):
            errs.append(f"term {v} reps {t['reps']} != exact {reps(a, b, v)}")
    if limit is not None and n + (k - 1) * d > limit:
        errs.append(f"final term {n + (k - 1) * d} exceeds limit {limit}")
    return n, d


def _maximal(a: int, b: int, k: int, n: int, d: int) -> bool:
    return not ((n - d >= 2 and reps(a, b, n - d)) or reps(a, b, n + k * d))


def check_ap(args: dict, lines: list[dict]) -> list[str]:
    a, b, k, limit = args["a"], args["b"], args["k"], args["limit"]
    errs: list[str] = []
    prev = None
    for obj in lines:
        n, d = _progression(obj, a, b, k, limit, errs)
        if obj["maximal"] != _maximal(a, b, k, n, d):
            errs.append(f"maximal flag wrong for ({n}, {d})")
        if prev is not None and (n, d) <= prev:
            errs.append(f"windows not strictly sorted at ({n}, {d})")
        prev = (n, d)
    return errs


def check_bb5(args: dict, lines: list[dict]) -> list[str]:
    errs: list[str] = []
    prev = None
    for obj in lines[:-1]:
        terms = obj["terms"]
        signed = []
        for t in terms:
            v = int(t["value"])
            if v != 2 ** t["alpha"] * 3 ** t["beta"] or v > BB5_VALUE_BOUND:
                errs.append(f"bad monomial {t}")
            if t["alpha"] > args["alpha_max"] or t["beta"] > args["beta_max"]:
                errs.append(f"monomial {t} outside the exponent box")
            signed.append(t["sign"] * v)
        mags = [abs(s) for s in signed]
        if len(terms) != 5 or sum(signed) != 0:
            errs.append(f"terms {signed} do not sum to 0")
        if mags != sorted(set(mags), reverse=True) or signed[0] < 0:
            errs.append(f"terms {signed} not distinct, ordered and sign-normalised")
        if min(t["alpha"] for t in terms) or min(t["beta"] for t in terms):
            errs.append(f"solution {signed} is not primitive")
        if prev is not None and tuple(signed) >= prev:
            errs.append("solutions not strictly sorted")
        prev = tuple(signed)
    tail = lines[-1]
    if (tail["count"], tail["alpha_max"], tail["beta_max"]) != (len(lines) - 1, args["alpha_max"], args["beta_max"]):
        errs.append(f"summary {tail} disagrees with output or request")
    return errs


def check_dt(args: dict, lines: list[dict]) -> list[str]:
    p, q = args["p"], args["q"]
    errs: list[str] = []
    for obj in lines[:-1]:
        s, (x, y, z, w) = obj["signs"], obj["exponents"]
        powers = [p**x, q**y, p**z, q**w]
        if obj["shape"] == "pxqy+-pz+-qw+-1":
            want = [p**x * q**y, s[1] * p**z, s[2] * q**w, s[3]]
        else:
            want = [p**x, s[1] * q**y, s[2] * p**z, s[3] * q**w]
        terms = [int(t) for t in obj["terms"]]
        if terms != want or sum(terms) != 0 or s[0] != 1:
            errs.append(f"dt solution {obj} fails exact recheck")
        if max(powers) > DT_POWER_BOUND:
            errs.append(f"dt solution {obj} exceeds the power bound")
    tail = lines[-1]
    if (tail["count"], tail["p"], tail["q"]) != (len(lines) - 1, p, q):
        errs.append(f"summary {tail} disagrees with output or request")
    return errs


def check_deweger(args: dict, lines: list[dict]) -> list[str]:
    z_limit = args["z_limit"]
    errs: list[str] = []
    for obj in lines[:-1]:
        x, y, z = int(obj["x"]), int(obj["y"]), int(obj["z"])
        if x + y != z or not 1 <= x <= y or z > z_limit or gcd(x, y) != 1 or not _smooth(x * y * z):
            errs.append(f"triple ({x}, {y}, {z}) fails exact recheck")
        if obj["ords"] != {str(p): _ordp(x * y * z, p) for p in DEWEGER_PRIMES}:
            errs.append(f"ord profile of ({x}, {y}, {z}) is wrong")
    tail = lines[-1]
    if tail != {"count": len(lines) - 1, "z_limit": str(z_limit)}:
        errs.append(f"summary {tail} disagrees with output or request")
    return errs


def _pattern_total(spec: dict, values: list[int]) -> int:
    assign = dict(zip([v for v, _ in spec["bounds"]], values))
    total = 0
    for c, pe, qe in spec["terms"]:
        pe = assign[pe] if isinstance(pe, str) else pe
        qe = assign[qe] if isinstance(qe, str) else qe
        total += c * spec["p"] ** pe * spec["q"] ** qe
    return total


def _recheck_found(spec: dict, t: list[int]) -> bool:
    kind = spec["kind"]
    if kind == "pattern":
        return _pattern_total(spec, t) == 0 and all(0 <= v <= b for v, (_, b) in zip(t, spec["bounds"]))
    if kind == "pillai_table":
        p, q, x, y, z, w = t
        return p**x - p**y == q**z - q**w > 0
    if kind == "rn_scan":
        b, m, e1, e2 = t
        return b**m == 2**e1 + 2**e2 + 1 and m >= 2 and e1 > e2 >= 1
    if kind == "kruk_scan":
        b, x0, y1, y2 = t
        return 1 + b**y2 + 2**x0 == 2 * b**y1
    if kind == "lemma21_sweep":
        b, x, y, alpha, beta = t
        return b**x - b**y == 2**alpha * 3**beta
    return False


def check_check(lines: list[dict], registry: dict) -> list[str]:
    errs: list[str] = []
    ids = sorted(registry)
    if [obj["id"] for obj in lines] != ids:
        errs.append(f"check ids {[obj['id'] for obj in lines]} != registry {ids}")
    for obj in lines:
        spec = registry.get(obj["id"], {}).get("solver")
        if spec is None:
            continue
        if not obj["passed"] or obj["missing"] or obj["undocumented_extra"]:
            errs.append(f"check {obj['id']} did not pass")
        if obj["expected_recheck_failures"]:
            errs.append(f"check {obj['id']} has expected tuples failing recheck")
        for t in obj.get("found", []):
            if not _recheck_found(spec, t):
                errs.append(f"check {obj['id']} found {t}, which fails exact recheck")
        if "found" in obj and len(obj["found"]) != obj["found_count"]:
            errs.append(f"check {obj['id']} found_count disagrees with found")
    return errs


def _classify_entry(a: int, b: int, n: int, d: int) -> dict | None:
    if (a, b, n, d) in SPORADIC_5TERM:
        return {"kind": "sporadic", "k": None}
    k = power_exp(b - 1, 2)
    if a == 2 and k and (n, d) == (2**k + 1, 2**k):
        return {"kind": "family1", "k": k}
    if a == 3 and (b - 1) % 4 == 0:
        e = power_exp((b - 1) // 4, 3)
        if e is not None and (n, d) == (3**e + 1, 2 * 3**e):
            return {"kind": "family2", "k": e + 1}
    return None


def check_sweep(args: dict, lines: list[dict]) -> list[str]:
    a_max, b_max, k, limit = args["a_max"], args["b_max"], args["k"], args["limit"]
    errs: list[str] = []
    prev = None
    for obj in lines[:-1]:
        a, b, n, d = obj["a"], obj["b"], int(obj["N"]), int(obj["D"])
        if not (2 <= a <= a_max and a < b <= b_max) or obj["len"] != k or d < 1:
            errs.append(f"finding {obj} outside the grid")
        if any(not reps(a, b, n + i * d) for i in range(k)) or n + (k - 1) * d > limit:
            errs.append(f"finding ({a}, {b}, {n}, {d}) fails exact recheck")
        if obj["maximal"] != _maximal(a, b, k, n, d):
            errs.append(f"maximal flag wrong for ({a}, {b}, {n}, {d})")
        if k == 5 and obj["class"] != _classify_entry(a, b, n, d):
            errs.append(f"class {obj['class']} wrong for ({a}, {b}, {n}, {d})")
        if prev is not None and (a, b, n, d) <= prev:
            errs.append("findings not strictly sorted")
        prev = (a, b, n, d)
    tail = lines[-1]
    pairs = sum(b_max - a for a in range(2, a_max + 1))
    findings = len(lines) - 1
    if (tail["pairs_swept"], tail["findings"], tail["unclassified"]) != (pairs, findings, 0):
        errs.append(f"summary {tail} disagrees with grid size, output or classification")
    return errs


def check_family(args: dict, lines: list[dict]) -> list[str]:
    errs: list[str] = []
    if len(lines) != 1:
        return [f"{len(lines)} lines, expected 1"]
    obj = lines[0]
    a, b = obj["a"], obj["b"]
    if not b > a > 1 or obj["family"] != args["family_id"] or obj["verified"] is not True:
        errs.append(f"family {args['family_id']} output header {a, b, obj['family'], obj['verified']} is wrong")
    _progression(obj, a, b, obj["len"], None, errs)
    return errs


def check_prog3(args: dict, lines: list[dict]) -> list[str]:
    errs: list[str] = []
    prev = None
    for obj in lines:
        a, b, d1, d2 = obj["a"], obj["b"], obj["delta1"], obj["delta2"]
        if not (2 <= a <= args["limit"] and b > a and d1 in (0, 1) and d2 in (0, 1)):
            errs.append(f"prog3 pair {obj} out of range")
        elif b * b - b**d2 != 2 * a * a - 2 * a**d1:
            errs.append(f"prog3 pair {obj} fails exact recheck")
        if prev is not None and (a, b, d1, d2) <= prev:
            errs.append("prog3 pairs not strictly sorted")
        prev = (a, b, d1, d2)
    return errs


def _echo_matches(got, want) -> bool:
    if isinstance(want, bool) or not isinstance(want, int):
        return got == want
    return isinstance(got, (int, str)) and not isinstance(got, bool) and str(got) == str(want)


def check_record(cmd, record: dict, pins: dict) -> list[str]:
    """Exit code, manifest digest, echoed parameters and pins of one run."""
    if record["code"] != 0:
        return [f"exit code {record['code']!r}: {record['stderr'].strip()[-300:]}"]
    manifest = record["manifest"]
    if manifest is None:
        return ["no manifest written"]
    errs: list[str] = []
    sha = record["stdout_sha256"]
    if manifest.get("result_sha256") != sha or manifest.get("result_lines") != record["stdout_lines"]:
        errs.append("manifest digest or line count disagrees with stdout")
    params = manifest.get("parameters", {})
    for key, want in cmd.echo.items():
        if not _echo_matches(params.get(key), want):
            errs.append(f"manifest parameter {key}={params.get(key)!r}, requested {want!r}")
    if cmd.key in pins and pins[cmd.key] != sha:
        errs.append(f"result_sha256 {sha[:12]} differs from pin {pins[cmd.key][:12]}")
    prefix = BASELINE_PREFIXES.get(cmd.key)
    if prefix and not sha.startswith(prefix):
        errs.append(f"result_sha256 {sha[:12]} differs from the baseline digest {prefix}")
    return errs


def check_lines(cmd, stdout: bytes, registry: dict) -> list[str]:
    """Exact recheck of every result line a command wrote."""
    try:
        lines = _lines(stdout)
        if cmd.kind == "check":
            return check_check(lines, registry)
        return CHECKERS[cmd.kind](cmd.args, lines)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


CHECKERS = {
    "ap": check_ap,
    "bb5": check_bb5,
    "dt": check_dt,
    "deweger": check_deweger,
    "sweep": check_sweep,
    "family": check_family,
    "prog3": check_prog3,
}
