"""Registry of named finite computations with recorded expected outputs.

``data/checks.json`` is an object whose ``checks`` list binds each solver
configuration to the solution list it should produce: a unique string
``id``; a ``solver`` object whose ``kind`` names a loader of ``KINDS`` and
whose other keys are that kind's spec; ``expected`` rows, each a list of
nonnegative integers of the kind's row length (for a pattern, exponents in
declared variable order); optionally ``documented_extras`` rows and a
string ``discrepancy_note``.  ``anchor`` and ``description`` only document
the entry, and any other key is refused.  A ``KINDS`` loader checks a spec
whole and returns (row length, run, recheck): ``run()`` returns (found,
bounds used) and ``recheck(row)`` re-checks one row exactly, both bound to
the checked spec; a row outside the box that ``run()`` searches fails its
re-check before any of its powers is computed.  A scan kind takes exactly
its keys, each in the domain its scan assumes, so a scan checks no bound of
its own; a pattern is built once by ``build_pattern``, which checks it.
The Kruk and Lemma 2.1 scans are one pass each over one exact table of
targets.  A pattern's ``side_predicate`` names an entry of
``SIDE_PREDICATES``, which lists the variables the predicate reads, and the
pattern must declare each.  Every entry is validated when the registry
loads, and each documented extra is re-checked then; a malformed one raises
a ValueError naming the check id and the key.  A check loads its spec once,
runs the solver at the recorded bounds and returns a plain row, the dict
that the ``check`` command prints: found versus expected, with two
safeguards:

* every expected tuple is re-checked by exact arithmetic before the
  comparison, so a typo in a recorded list surfaces as a re-check failure
  rather than being silently trusted;
* extras the scan finds that the recorded list omits either match the
  entry's ``documented_extras`` (reported as a flagged discrepancy) or
  fail the check outright.

The module also houses the solver and classifier for the two-prime
difference equation b^x - b^y = 2^alpha 3^beta.
"""

from __future__ import annotations

import functools
import json
import os
from collections import namedtuple
from collections.abc import Callable

from .numutil import PRIME_LIMIT, ilog, is_prime, minimal_power_base, power_exponent
from .sunit import Pattern, pillai_difference_table, solve_pattern

# ---------------------------------------------------------------------------
# b^x - b^y = 2^alpha 3^beta : solver and classifier
# ---------------------------------------------------------------------------

# Classification cases for b > 2.  The sporadic (17, .) tuple is recorded
# as printed in LEMMA_SPORADIC_PRINTED; exact re-checking forces x = 2
# (17^2 - 1 = 288 = 2^5 * 3^2) and the corrected set below is what the
# classifier matches against.
LEMMA_SPORADIC_PRINTED: tuple[tuple[int, int, int, int], ...] = (
    (2, 2, 0, 1),
    (5, 2, 3, 1),
    (7, 2, 4, 1),
    (17, 1, 5, 2),
)
LEMMA_SPORADIC: tuple[tuple[int, int, int, int], ...] = (
    (2, 2, 0, 1),
    (5, 2, 3, 1),
    (7, 2, 4, 1),
    (17, 2, 5, 2),
)

CASE_POW23_PLUS_ONE = "b=2^a*3^b+1"
CASE_B3_STEP1 = "b=3,x=y+1"
CASE_B3_STEP2 = "b=3,x=y+2"
CASE_B9_STEP1 = "b=9,x=y+1"
CASE_B4_STEP1 = "b=4,x=y+1"
CASE_SPORADIC = "sporadic"
CASE_OUT_OF_HYPOTHESIS = "out-of-hypothesis"
CASE_UNLISTED = "UNLISTED"


class LemmaSolution(namedtuple("LemmaSolution", "b x y alpha beta")):
    """A solution of b^x - b^y = 2^alpha 3^beta with x > y >= 0."""

    __slots__ = ()

    def __new__(cls, b: int, x: int, y: int, alpha: int, beta: int) -> LemmaSolution:
        self = super().__new__(cls, b, x, y, alpha, beta)
        if b**x - b**y != 2**alpha * 3**beta:
            raise ValueError(f"not a solution: {self}")
        if not x > y >= 0:
            raise ValueError(f"need x > y >= 0: {self}")
        return self


def lemma21_solve(b_min: int, b_max: int, x_max: int, alpha_max: int, beta_max: int) -> list[LemmaSolution]:
    """Complete list of b^x - b^y = 2^alpha 3^beta, b_min <= b <= b_max, within the given bounds.

    Each b^x - b^y, x > y >= 0, is looked up in one table {2^alpha 3^beta: (alpha, beta)}; sorted
    by (b, x, y).  The registry checks b_min >= 2 and x_max, alpha_max, beta_max >= 1 at load.
    """
    targets = {2**alpha * 3**beta: (alpha, beta) for alpha in range(alpha_max + 1) for beta in range(beta_max + 1)}
    return [
        LemmaSolution(b, x, y, *targets[d])
        for b in range(b_min, b_max + 1)
        for x in range(1, x_max + 1)
        for y in range(x)
        if (d := b**x - b**y) in targets
    ]


def lemma21_classify(sol: LemmaSolution) -> str:
    """The classification case matching a solution.

    Returns one of the five parametric cases, 'sporadic', or for a b = 2
    solution outside the recorded cases 'out-of-hypothesis' (the
    classification assumes b > 2).  'UNLISTED' marks a b >= 3 solution no
    case covers and would flag a genuine discrepancy.
    """
    b, x, y, a, c = sol.b, sol.x, sol.y, sol.alpha, sol.beta
    if x == 1 and y == 0 and b == 2**a * 3**c + 1:
        return CASE_POW23_PLUS_ONE
    if b == 3 and x == y + 1 and c == y and a == 1:
        return CASE_B3_STEP1
    if b == 3 and x == y + 2 and c == y and a == 3:
        return CASE_B3_STEP2
    if b == 9 and x == y + 1 and c == 2 * y and a == 3:
        return CASE_B9_STEP1
    if b == 4 and x == y + 1 and a == 2 * y and c == 1:
        return CASE_B4_STEP1
    if y == 0 and (b, x, a, c) in LEMMA_SPORADIC:
        return CASE_SPORADIC
    return CASE_OUT_OF_HYPOTHESIS if b == 2 else CASE_UNLISTED


# ---------------------------------------------------------------------------
# Check-specific scans
# ---------------------------------------------------------------------------


def kruk_scan(b_min: int, b_max: int, exp_max: int) -> list[tuple[int, int, int, int]]:
    """All (b, x0, y1, y2) with 1 + b^y2 + 2^x0 = 2 b^y1, b_min <= b <= b_max, exponents <= exp_max.

    Each r = 2 b^y1 - 1 - b^y2 is looked up in one table {2^x0: x0}.  For b >= 2, r >= 1 forces
    b^y2 < 2 b^y1 <= b^(y1 + 1), so y2 <= y1 and r >= b^y1 - 1; as r <= 2^exp_max, y1 stops once
    b^y1 > 2^exp_max + 1, which loses no row.  The registry checks b_min >= 2 and exp_max >= 0 at load.
    """
    powers = {1 << x0: x0 for x0 in range(exp_max + 1)}
    cap = max(powers, default=0) + 1
    out = []
    for b in range(b_min, b_max + 1):
        by1 = 1
        for y1 in range(exp_max + 1):
            if by1 > cap:
                break
            target = 2 * by1 - 1
            by2 = 1
            for y2 in range(y1 + 1):
                x0 = powers.get(target - by2)
                if x0 is not None:
                    out.append((b, x0, y1, y2))
                by2 *= b
            by1 *= b
    out.sort()
    return out


def rn_scan(e_max: int) -> list[tuple[int, int, int, int]]:
    """All (b, m, e1, e2) with b^m = 2^e1 + 2^e2 + 1, m >= 2, e1 > e2 >= 1.

    With val = g^e and e maximal, b^m = val holds exactly when m divides e
    and b = g^(e/m), so one `minimal_power_base` call gives every row of val.
    """
    out = []
    for e1 in range(2, e_max + 1):
        for e2 in range(1, e1):
            g, e = minimal_power_base((1 << e1) + (1 << e2) + 1)
            out.extend((g ** (e // m), m, e1, e2) for m in range(2, e + 1) if e % m == 0)
    out.sort()
    return out


def _lemma21_sweep(b_min: int, b_max: int, x_max: int, alpha_max: int, beta_max: int) -> list[LemmaSolution]:
    """The solutions of the classification sweep that no case covers."""
    sols = lemma21_solve(b_min, b_max, x_max, alpha_max, beta_max)
    return [sol for sol in sols if lemma21_classify(sol) == CASE_UNLISTED]


# ---------------------------------------------------------------------------
# Registry: side predicates, pattern specs, kinds and plumbing
# ---------------------------------------------------------------------------


def _baj_eq15_context(a: dict[str, int]) -> bool:
    if a["x2"] == a["x3"] or a["y2"] == a["y3"]:
        return False
    if (a["x3"] == 0 and a["y2"] == 0) or (a["y3"] == 0 and a["x2"] == 0):
        return False
    v = 2 ** a["x2"] + 3 ** a["y2"] - 5 * 3 ** a["y0"]
    return v >= 1 and power_exponent(v, 2) is not None


# each side predicate with the variables it reads, which a pattern naming it must declare
SIDE_PREDICATES: dict[str, tuple[tuple[str, ...], Callable[[dict[str, int]], bool]]] = {
    "baj-eq15-context": (("x2", "x3", "y2", "y3", "y0"), _baj_eq15_context),
    "dt-3y2-context": (("y0",), lambda a: a["y0"] <= 1),
    "szalay-context": (("u", "v", "y2"), lambda a: a["u"] > a["v"] >= 3 and a["v"] % 2 == 1 and a["y2"] % 2 == 0),
}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def build_pattern(spec) -> tuple[Pattern, Callable[[dict[str, int]], bool] | None]:
    """The Pattern of a pattern spec and its side predicate, or None.

    A spec is a checks.json solver or a pattern file.  The documented
    shape is an object with integers ``p`` and ``q``, ``terms`` as
    [coefficient, p_exp, q_exp] triples whose exponents are integers or
    variable names, ``bounds`` as [name, integer] pairs, and optionally a
    ``side_predicate`` naming an entry of SIDE_PREDICATES, whose variables
    the pattern must declare; a registry's ``kind`` key is allowed.  Any
    other shape or key, or a side predicate that reads a variable the
    pattern does not declare, raises ValueError.  The triples are used as
    they are, as the pattern's terms, and ``Pattern`` checks them.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"pattern must be a JSON object, got {type(spec).__name__}")
    known = ("p", "q", "terms", "bounds", "side_predicate")
    for key in sorted(spec.keys() - {"kind", *known}):
        raise ValueError(f"unknown pattern key {key!r}; known: {', '.join(known)}")
    missing = [k for k in known[:4] if k not in spec]
    if missing:
        raise ValueError(f"pattern lacks {', '.join(missing)}")
    if not (_is_int(spec["p"]) and _is_int(spec["q"])):
        raise ValueError("p and q must be integers")
    terms, bounds = spec["terms"], spec["bounds"]
    if not isinstance(terms, list) or not all(
        isinstance(t, list) and len(t) == 3 and _is_int(t[0]) and all(_is_int(e) or isinstance(e, str) for e in t[1:])
        for t in terms
    ):
        raise ValueError("terms must be [coefficient, p_exp, q_exp] triples; exponents are integers or names")
    if not isinstance(bounds, list) or not all(
        isinstance(b, list) and len(b) == 2 and isinstance(b[0], str) and _is_int(b[1]) for b in bounds
    ):
        raise ValueError("bounds must be [name, integer] pairs")
    pred = spec.get("side_predicate")
    if "side_predicate" in spec and not (isinstance(pred, str) and pred in SIDE_PREDICATES):
        raise ValueError(f"unknown side_predicate {pred!r}; known: {', '.join(sorted(SIDE_PREDICATES))}")
    pattern = Pattern(spec["p"], spec["q"], tuple(map(tuple, terms)), tuple(map(tuple, bounds)))
    reads, predicate = SIDE_PREDICATES.get(pred, ((), None))
    undeclared = [v for v in reads if v not in pattern.variables]
    if undeclared:
        raise ValueError(f"side_predicate {pred!r} reads {', '.join(undeclared)}, which the pattern does not declare")
    return pattern, predicate


# a domain is the text a refusal names it by and its test
_INT = ("an integer", _is_int)
_PRIME_PAIRS = (
    f"a list of pairs of distinct primes below {PRIME_LIMIT}",
    lambda v: isinstance(v, list) and all(
        isinstance(p, list) and len(p) == 2 and p[0] != p[1]
        and all(_is_int(n) and n < PRIME_LIMIT and is_prime(n) for n in p) for p in v),
)


def _at_least(least: int) -> tuple[str, Callable[[object], bool]]:
    return f"an integer >= {least}", lambda v: _is_int(v) and v >= least


def _scan_kind(keys: dict[str, tuple], length: int, scan: Callable, row_check: Callable[..., bool]) -> Callable:
    """The loader of a spec holding exactly `keys` (name -> domain), the keyword arguments of `scan` -> found.

    `row_check(*row, **spec)` is the recheck: False for a row outside the scan's box, else the exact equation.
    """

    def load(spec: dict) -> tuple[int, Callable, Callable]:
        for key in sorted(spec.keys() - {"kind", *keys}):
            raise ValueError(f"solver key {key!r} is not one of {', '.join(keys)}")
        for key, (text, test) in keys.items():
            if not test(spec.get(key)):
                raise ValueError(f"solver key {key!r} must be {text}, got {spec[key]!r}" if key in spec
                                 else f"solver lacks key {key!r}")
        args = {k: spec[k] for k in keys}
        return length, lambda: (scan(**args), args), lambda row: row_check(*row, **args)

    return load


def _load_pattern(spec) -> tuple[int, Callable, Callable]:
    pattern, predicate = build_pattern(spec)
    tops = [b for _, b in pattern.var_bounds]

    def run() -> tuple[list[tuple], dict]:
        return [a for a, _ in solve_pattern(pattern, side_predicate=predicate)], dict(pattern.var_bounds)

    return len(tops), run, lambda row: all(a <= b for a, b in zip(row, tops)) and sum(pattern.term_values(row)) == 0


# a loader checks a spec whole (ValueError) and returns (row length, run() -> (found, bounds used),
# recheck(row) -> bool); scans are looked up by name when they run, so a wrapper later bound to
# that name (a tracer's, say) sees the call
KINDS: dict[str, Callable[[dict], tuple[int, Callable, Callable]]] = {
    "pattern": _load_pattern,
    "pillai_table": _scan_kind(
        {"prime_pairs": _PRIME_PAIRS, "power_bound": _at_least(1)}, 6, lambda **args: pillai_difference_table(**args),
        lambda p, q, x, y, z, w, prime_pairs, power_bound: [p, q] in prime_pairs
        and max(x, y) <= ilog(power_bound, p) and max(z, w) <= ilog(power_bound, q) and p**x - p**y == q**z - q**w > 0,
    ),
    "rn_scan": _scan_kind(
        {"e_max": _INT}, 4, lambda e_max: rn_scan(e_max),
        lambda b, m, e1, e2, e_max: 1 <= e2 < e1 <= e_max and 2 <= m <= e1 and b**m == 2**e1 + 2**e2 + 1,
    ),
    "kruk_scan": _scan_kind(
        {"b_min": _at_least(2), "b_max": _INT, "exp_max": _at_least(0)}, 4, lambda **args: kruk_scan(**args),
        lambda b, x0, y1, y2, b_min, b_max, exp_max: b_min <= b <= b_max and max(x0, y1, y2) <= exp_max
        and 1 + b**y2 + 2**x0 == 2 * b**y1,
    ),
    "lemma21_sweep": _scan_kind(
        {"b_min": _at_least(2), "b_max": _INT, **dict.fromkeys(("x_max", "alpha_max", "beta_max"), _at_least(1))},
        5, _lemma21_sweep,
        lambda b, x, y, alpha, beta, b_min, b_max, x_max, alpha_max, beta_max: b_min <= b <= b_max
        and y < x <= x_max and alpha <= alpha_max and beta <= beta_max and b**x - b**y == 2**alpha * 3**beta,
    ),
}


class NamedCheck(namedtuple("NamedCheck", "id solver expected documented_extras discrepancy_note")):
    """One validated registry check: its solver spec and the rows it must find."""

    __slots__ = ()


_ENTRY_KEYS = ("id", "solver", "expected", "documented_extras", "discrepancy_note", "anchor", "description")


def _named_check(entry, seen: dict) -> NamedCheck:
    """One registry entry, validated by its kind's loader."""
    cid = entry.get("id") if isinstance(entry, dict) else None
    try:
        if not isinstance(cid, str) or cid in seen:
            raise ValueError("id must be a string that no other check uses")
        for key in sorted(entry.keys() - _ENTRY_KEYS):
            raise ValueError(f"entry key {key!r} is not one of {', '.join(_ENTRY_KEYS)}")
        spec = entry.get("solver")
        name = spec.get("kind") if isinstance(spec, dict) else None
        if not isinstance(name, str) or name not in KINDS:
            raise ValueError(f"solver kind {name!r} is not one of {', '.join(KINDS)}")
        length, _, recheck = KINDS[name](spec)
        rows = {"expected": entry.get("expected"), "documented_extras": entry.get("documented_extras", [])}
        for key, value in rows.items():
            if not isinstance(value, list):
                raise ValueError(f"{key} must be a list of rows, got {value!r}")
            for row in value:
                if not (isinstance(row, list) and len(row) == length and all(_is_int(v) and v >= 0 for v in row)):
                    raise ValueError(f"{key} row {row!r} must be {length} nonnegative integers")
        # an extra that is not a solution could never excuse a found row
        for row in rows["documented_extras"]:
            if not recheck(row):
                raise ValueError(f"documented_extras row {row!r} fails the exact re-check")
        note = entry.get("discrepancy_note")
        if not isinstance(note, (str, type(None))):
            raise ValueError(f"discrepancy_note must be a string, got {note!r}")
    except ValueError as exc:
        raise ValueError(f"check {cid!r}: {exc}") from None
    return NamedCheck(cid, spec, *(tuple(map(tuple, v)) for v in rows.values()), note)


@functools.cache
def registry() -> dict[str, NamedCheck]:
    """The validated checks of ``data/checks.json`` by id, loaded on first call."""
    with open(os.path.join(os.path.dirname(__file__), "data", "checks.json"), "rb") as fh:
        raw = json.loads(fh.read())
    if not (isinstance(raw, dict) and isinstance(raw.get("checks"), list)):
        raise ValueError("checks.json must be a JSON object whose 'checks' is a list")
    checks: dict[str, NamedCheck] = {}
    for entry in raw["checks"]:
        check = _named_check(entry, checks)
        checks[check.id] = check
    return checks


def run_check(check_id: str) -> dict:
    """Execute one registered check; the row that ``check`` prints, found against expected.

    The row holds ``id``, ``passed``, ``flagged``, ``found`` (which
    ``check`` leaves out past 200 rows) and ``found_count``, the sorted
    ``missing``, ``undocumented_extra`` and ``documented_extra`` rows,
    ``expected_recheck_failures``, the ``bounds`` the solver used and,
    when the entry records one, its ``note``.  A check passes when nothing
    expected is missing and every extra is documented; it is flagged when
    it has a documented extra or a note.
    """
    checks = registry()
    if check_id not in checks:
        raise ValueError(f"unknown check id {check_id!r}; known: {', '.join(sorted(checks))}")
    check = checks[check_id]
    _, run, recheck = KINDS[check.solver["kind"]](check.solver)
    recheck_failures = [t for t in check.expected if not recheck(t)]
    found, bounds = run()
    found_set, expected_set = set(found), set(check.expected)
    extra = found_set - expected_set
    missing = sorted(expected_set - found_set)
    documented = sorted(set(check.documented_extras) & extra)
    undocumented = sorted(extra.difference(documented))
    row = {
        "id": check_id,
        "passed": not missing and not undocumented,
        "flagged": bool(documented or check.discrepancy_note),
        "found_count": len(found_set),
        "found": sorted(found_set),
        "missing": missing,
        "undocumented_extra": undocumented,
        "documented_extra": documented,
        "expected_recheck_failures": recheck_failures,
        "bounds": bounds,
    }
    if check.discrepancy_note:
        row["note"] = check.discrepancy_note
    return row


def run_all() -> list[dict]:
    """The row of every registered check, ordered by id."""
    return [run_check(cid) for cid in sorted(registry())]
