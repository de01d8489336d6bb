"""Registry of named finite computations with recorded expected outputs.

Each entry of ``data/checks.json`` binds a solver configuration to the
solution list it should produce: a unique string ``id``; a ``solver``
object whose ``kind`` names a record of ``KINDS`` and whose other keys are
that kind's spec; ``expected`` rows, each a list of nonnegative integers of
the kind's row length (for a pattern, exponents in declared variable
order); optionally ``documented_extras`` rows and a string
``discrepancy_note``.  Keys such as ``anchor`` and ``description`` only
document the entry.  A ``KINDS`` record holds a whole-spec check that
returns the row length (a scan kind takes exactly its typed keys, and
``build_pattern`` checks a pattern), a run function returning (found,
bounds used, details) and an exact re-check of one expected row.  Every
entry is validated when the registry loads; a malformed one raises a
ValueError naming the check id and the key.  A check runs the solver at
the recorded bounds and reports found versus expected, with two safeguards:

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

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, NamedTuple

from .numutil import factor_over, iroot, power_exponent
from .sunit import Pattern, PatternTerm, pillai_difference_table, solve_pattern

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


@dataclass(frozen=True)
class LemmaSolution:
    b: int
    x: int
    y: int
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if self.b ** self.x - self.b ** self.y != 2 ** self.alpha * 3 ** self.beta:
            raise ValueError(f"not a solution: {self}")
        if not self.x > self.y >= 0:
            raise ValueError(f"need x > y >= 0: {self}")


def lemma21_solve(b: int, x_max: int, alpha_max: int, beta_max: int) -> list[LemmaSolution]:
    """Complete list of b^x - b^y = 2^alpha 3^beta within the given bounds.

    Enumerates x > y >= 0 directly and splits the difference into its
    {2,3} part by trial division; sorted by (x, y).
    """
    if b < 2:
        raise ValueError("b must be >= 2")
    if min(x_max, alpha_max, beta_max) < 1:
        raise ValueError("bounds must be >= 1")
    out = []
    for x in range(1, x_max + 1):
        for y in range(x):
            exps, cofactor = factor_over(b**x - b**y, (2, 3))
            if cofactor == 1 and exps[2] <= alpha_max and exps[3] <= beta_max:
                out.append(LemmaSolution(b, x, y, exps[2], exps[3]))
    out.sort(key=lambda s: (s.x, s.y))
    return out


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
    """All (b, x0, y1, y2) with 1 + b^y2 + 2^x0 = 2 b^y1, exponents <= exp_max."""
    out = []
    for b in range(b_min, b_max + 1):
        for y1 in range(exp_max + 1):
            target = 2 * b**y1 - 1
            by2 = 1
            for y2 in range(exp_max + 1):
                r = target - by2
                if r < 1:
                    break
                if r & (r - 1) == 0:  # power of two
                    x0 = r.bit_length() - 1
                    if x0 <= exp_max:
                        out.append((b, x0, y1, y2))
                by2 *= b
    out.sort()
    return out


def rn_scan(e_max: int) -> list[tuple[int, int, int, int]]:
    """All (b, m, e1, e2) with b^m = 2^e1 + 2^e2 + 1, m >= 2, e1 > e2 >= 1."""
    out = []
    for e1 in range(2, e_max + 1):
        for e2 in range(1, e1):
            val = (1 << e1) + (1 << e2) + 1
            for m in range(2, val.bit_length() + 1):
                b = iroot(val, m)
                if b >= 2 and b**m == val:
                    out.append((b, m, e1, e2))
    out.sort()
    return out


def _lemma21_sweep(
    b_min: int, b_max: int, x_max: int, alpha_max: int, beta_max: int
) -> tuple[list[tuple], dict]:
    """Returns (unlisted solutions, detail dict) for the classification sweep."""
    unlisted = []
    out_of_hyp = []
    tags: dict[str, int] = {}
    for b in range(b_min, b_max + 1):
        for sol in lemma21_solve(b, x_max, alpha_max, beta_max):
            tag = lemma21_classify(sol)
            tags[tag] = tags.get(tag, 0) + 1
            row = (sol.b, sol.x, sol.y, sol.alpha, sol.beta)
            if tag == CASE_UNLISTED:
                unlisted.append(row)
            elif tag == CASE_OUT_OF_HYPOTHESIS:
                out_of_hyp.append(row)
    printed_bad = [
        t
        for t in LEMMA_SPORADIC_PRINTED
        if t[0] ** t[1] - 1 != 2 ** t[2] * 3 ** t[3]
    ]
    details = {
        "tag_counts": tags,
        "out_of_hypothesis": out_of_hyp,
        "printed_sporadics_failing_recheck": printed_bad,
        "corrected_sporadics": [t for t in LEMMA_SPORADIC if t not in LEMMA_SPORADIC_PRINTED],
    }
    return unlisted, details


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


SIDE_PREDICATES: dict[str, Callable[[dict[str, int]], bool]] = {
    "baj-eq15-context": _baj_eq15_context,
    "dt-3y2-context": lambda a: a["y0"] <= 1,
    "szalay-context": lambda a: a["u"] > a["v"] >= 3 and a["v"] % 2 == 1 and a["y2"] % 2 == 0,
}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def build_pattern(spec) -> tuple[Pattern, Callable[[dict[str, int]], bool] | None]:
    """The Pattern of a pattern spec and its side predicate, or None.

    A spec is a checks.json solver or a pattern file.  The documented
    shape is an object with integers ``p`` and ``q``, ``terms`` as
    [coefficient, p_exp, q_exp] triples whose exponents are integers or
    variable names, ``bounds`` as [name, integer] pairs, and optionally the
    booleans ``require_primitive`` and ``forbid_vanishing_subsums``, an
    integer ``value_bound`` and a ``side_predicate`` naming an entry of
    SIDE_PREDICATES; a registry's ``kind`` key is allowed.  Any other shape
    or key raises ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"pattern must be a JSON object, got {type(spec).__name__}")
    known = ("p", "q", "terms", "bounds", "require_primitive", "forbid_vanishing_subsums", "value_bound",
             "side_predicate")
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
    for key in ("require_primitive", "forbid_vanishing_subsums"):
        if not isinstance(spec.get(key, False), bool):
            raise ValueError(f"{key} must be true or false")
    if spec.get("value_bound") is not None and not _is_int(spec["value_bound"]):
        raise ValueError("value_bound must be an integer")
    pred = spec.get("side_predicate")
    if "side_predicate" in spec and not (isinstance(pred, str) and pred in SIDE_PREDICATES):
        raise ValueError(f"unknown side_predicate {pred!r}; known: {', '.join(sorted(SIDE_PREDICATES))}")
    pattern = Pattern(
        spec["p"], spec["q"], tuple(PatternTerm(*t) for t in terms), tuple(map(tuple, bounds)),
        spec.get("require_primitive", False), spec.get("forbid_vanishing_subsums", False), spec.get("value_bound"),
    )
    return pattern, SIDE_PREDICATES.get(pred)


_INT = "an integer"
_INT_PAIRS = "a list of integer pairs"
_KEY_TYPES: dict[str, Callable[[object], bool]] = {
    _INT: _is_int,
    _INT_PAIRS: lambda v: isinstance(v, list)
    and all(isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in v),
}


class Kind(NamedTuple):
    """One solver kind of the registry."""

    row_length: Callable[[dict], int]  # of an expected row; checks the spec whole and raises ValueError first
    run: Callable[[dict], tuple[list[tuple], dict, dict]]  # spec -> (found, bounds_used, details)
    recheck: Callable[[dict, tuple], bool]  # (spec, expected row) -> exact re-check


def _scan_kind(keys: dict[str, str], length: int, scan: Callable, row_check: Callable[..., bool]) -> Kind:
    """A kind whose spec holds exactly `keys` (name -> type), the keyword arguments of `scan` -> (found, details)."""

    def row_length(spec: dict) -> int:
        for key in sorted(spec.keys() - {"kind", *keys}):
            raise ValueError(f"solver key {key!r} is not one of {', '.join(keys)}")
        for key, type_name in keys.items():
            if not _KEY_TYPES[type_name](spec.get(key)):
                raise ValueError(f"solver key {key!r} must be {type_name}, got {spec[key]!r}" if key in spec
                                 else f"solver lacks key {key!r}")
        return length

    def run(spec: dict) -> tuple[list[tuple], dict, dict]:
        args = {k: spec[k] for k in keys}
        found, details = scan(**args)
        return found, args, details

    return Kind(row_length, run, lambda spec, row: row_check(*row))


def _run_pattern(spec: dict) -> tuple[list[tuple], dict, dict]:
    pattern, predicate = build_pattern(spec)
    return [s.values for s in solve_pattern(pattern, side_predicate=predicate)], dict(pattern.var_bounds), {}


KINDS: dict[str, Kind] = {
    "pattern": Kind(lambda spec: len(build_pattern(spec)[0].var_bounds), _run_pattern,
                    lambda spec, row: sum(build_pattern(spec)[0].term_values(row)) == 0),
    "pillai_table": _scan_kind(
        {"prime_pairs": _INT_PAIRS, "power_bound": _INT}, 6,
        lambda prime_pairs, power_bound: (pillai_difference_table(prime_pairs, power_bound), {}),
        lambda p, q, x, y, z, w: p**x - p**y == q**z - q**w > 0,
    ),
    "rn_scan": _scan_kind(
        {"e_max": _INT}, 4, lambda e_max: (rn_scan(e_max), {}),
        lambda b, m, e1, e2: b**m == 2**e1 + 2**e2 + 1 and m >= 2 and e1 > e2 >= 1,
    ),
    "kruk_scan": _scan_kind(
        dict.fromkeys(("b_min", "b_max", "exp_max"), _INT), 4, lambda **args: (kruk_scan(**args), {}),
        lambda b, x0, y1, y2: 1 + b**y2 + 2**x0 == 2 * b**y1,
    ),
    "lemma21_sweep": _scan_kind(
        dict.fromkeys(("b_min", "b_max", "x_max", "alpha_max", "beta_max"), _INT), 5, _lemma21_sweep,
        lambda b, x, y, alpha, beta: b**x - b**y == 2**alpha * 3**beta,
    ),
}


@dataclass(frozen=True)
class NamedCheck:
    id: str
    solver: dict
    expected: tuple[tuple, ...]
    documented_extras: tuple[tuple, ...] = ()
    discrepancy_note: str | None = None


@dataclass
class VerificationReport:
    check_id: str
    found: list[tuple]
    missing: list[tuple]
    extra: list[tuple]
    documented_extra: list[tuple]
    expected_recheck_failures: list[tuple]
    bounds_used: dict
    discrepancy_note: str | None = None
    details: dict = field(default_factory=dict)

    @property
    def undocumented_extra(self) -> list[tuple]:
        return [t for t in self.extra if t not in self.documented_extra]

    @property
    def passed(self) -> bool:
        return not self.missing and not self.undocumented_extra

    @property
    def flagged(self) -> bool:
        return bool(self.documented_extra or self.discrepancy_note)


def _named_check(entry, seen: dict) -> NamedCheck:
    """One registry entry, validated against its kind's record."""
    cid = entry.get("id") if isinstance(entry, dict) else None
    try:
        if not isinstance(cid, str) or cid in seen:
            raise ValueError("id must be a string that no other check uses")
        spec = entry.get("solver")
        name = spec.get("kind") if isinstance(spec, dict) else None
        if not isinstance(name, str) or name not in KINDS:
            raise ValueError(f"solver kind {name!r} is not one of {', '.join(KINDS)}")
        length = KINDS[name].row_length(spec)
        rows = {"expected": entry.get("expected"), "documented_extras": entry.get("documented_extras", [])}
        for key, value in rows.items():
            if not isinstance(value, list):
                raise ValueError(f"{key} must be a list of rows, got {value!r}")
            for row in value:
                if not (isinstance(row, list) and len(row) == length and all(_is_int(v) and v >= 0 for v in row)):
                    raise ValueError(f"{key} row {row!r} must be {length} nonnegative integers")
        note = entry.get("discrepancy_note")
        if not isinstance(note, (str, type(None))):
            raise ValueError(f"discrepancy_note must be a string, got {note!r}")
    except ValueError as exc:
        raise ValueError(f"check {cid!r}: {exc}") from None
    return NamedCheck(cid, spec, *(tuple(map(tuple, v)) for v in rows.values()), note)


def _load_registry() -> dict[str, NamedCheck]:
    raw = json.loads(resources.files("apsumset").joinpath("data/checks.json").read_text())
    registry: dict[str, NamedCheck] = {}
    for entry in raw["checks"]:
        check = _named_check(entry, registry)
        registry[check.id] = check
    return registry


_REGISTRY: dict[str, NamedCheck] | None = None


def registry() -> dict[str, NamedCheck]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _load_registry()
    return _REGISTRY


def check_ids() -> list[str]:
    return sorted(registry())


def run_check(check_id: str) -> VerificationReport:
    """Execute one registered check and compare found against expected."""
    checks = registry()
    if check_id not in checks:
        raise KeyError(f"unknown check id {check_id!r}; known: {', '.join(sorted(checks))}")
    check = checks[check_id]
    kind = KINDS[check.solver["kind"]]
    recheck_failures = [t for t in check.expected if not kind.recheck(check.solver, t)]
    found, bounds, details = kind.run(check.solver)
    found_set, expected_set = set(found), set(check.expected)
    extra = found_set - expected_set
    return VerificationReport(
        check_id=check_id,
        found=sorted(found_set),
        missing=sorted(expected_set - found_set),
        extra=sorted(extra),
        documented_extra=sorted(set(check.documented_extras) & extra),
        expected_recheck_failures=recheck_failures,
        bounds_used=bounds,
        discrepancy_note=check.discrepancy_note,
        details=details,
    )


def run_all() -> list[VerificationReport]:
    """Every registered check, ordered by id."""
    return [run_check(cid) for cid in check_ids()]
