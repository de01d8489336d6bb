"""Constructive generators for the known infinite progression families.

Each family is a closed-form recipe producing, for admissible parameters, a
3- or 4-term arithmetic progression whose terms all lie in a sumset
S_{a,b}.  ``FAMILIES`` maps each family id to its recipe, a function
whose parameter names are the family's parameters and which returns the
base pair and the closed-form exponent pairs (x, y) of the terms
a^x + b^y, or raises FamilyConstraintError naming a violated constraint.
``generate`` refuses a missing or unknown parameter and builds the
progression through ``apsearch.progression``, which checks every step and
every term's membership exactly, so a slip in a closed form is refused.

Families:

* three-term-A / three-term-B  -- a = 2, b = 2^k + 1 (two shapes);
* three-term-multdep           -- multiplicatively dependent bases a^c = b^d;
* four-term-powers2-A / -B     -- (a, b) = (2^d, 2^c), gcd(c, d) = 1,
                                  dk - cj = +1 / -1;
* prog1 .. prog7               -- seven sporadic-parameter shapes, e.g.
                                  prog1: (a, b, N, D) = (n, 2n-1, 2, n-1).

prog3 needs a base pair with b^2 - b^d2 = 2a^2 - 2a^d1.  With X = 2b - d2
and Y = 2a - d1 each of the four (d1, d2) is the Pell equation
X^2 - 2Y^2 = N, N = -4, -7, 2, -1, so the pairs grow geometrically by
the unit 3 + 2 sqrt 2.  ``find_prog3_pairs`` walks the orbits of the
solutions in Nagell's box under that unit, which gives every pair with
a <= L in O(log L) steps.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Callable

from .apsearch import progression
from .numutil import minimal_power_base
from .sumset import SumsetParams

Closed = tuple[SumsetParams, list[tuple[int, int]]]  # base pair, exponent pairs (x, y) of the terms


class FamilyConstraintError(ValueError):
    """A family parameter is missing, unknown or violates its admissibility constraint."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise FamilyConstraintError(msg)


def _three_term_a(k: int, j: int) -> Closed:
    _check(k >= 1, "k >= 1 required")
    _check(j >= 0, "j >= 0 required")
    return SumsetParams(2, 2**k + 1), [(k, 0), (j, 1), (j + 1, 1)]


def _three_term_b(k: int, j: int) -> Closed:
    _check(k >= 1, "k >= 1 required")
    _check(j >= k + 1, "j >= k + 1 required")
    return SumsetParams(2, 2**k + 1), [(k + 1, 0), (j, 1), (j + 1, 0)]


def _three_term_multdep(a: int, b: int, k: int, j: int) -> Closed:
    _check(b > a > 1, "b > a > 1 required")
    ga, ea = minimal_power_base(a)
    gb, eb = minimal_power_base(b)
    _check(ga == gb, f"{a} and {b} are not multiplicatively dependent")
    g = gcd(ea, eb)
    c, d = eb // g, ea // g  # minimal with a^c = b^d
    _check(k >= 0, "k >= 0 required")
    _check(j >= 1, "j >= 1 required")
    return SumsetParams(a, b), [
        (k * c, k * d),
        ((k + j) * c, k * d),
        ((k + j) * c, (k + j) * d),
    ]


def _four_term_powers2(d: int, c: int, k: int, j: int, m: int, want: int) -> Closed:
    """x in {k, k + mc}, y in {j, j + md}; the sign `want` of dk - cj orders the middle pair."""
    _check(0 < d < c, "0 < d < c required")
    _check(gcd(c, d) == 1, "gcd(c, d) = 1 required")
    _check(k >= 1 and j >= 1 and m >= 1, "k, j, m >= 1 required")
    _check(d * k - c * j == want, f"dk - cj = {want} required")
    middle = [(k, j + m * d), (k + m * c, j)]
    return SumsetParams(2**d, 2**c), [(k, j), *middle[::want], (k + m * c, j + m * d)]


def _prog1(n: int) -> Closed:
    _check(n >= 2, "n >= 2 required")
    return SumsetParams(n, 2 * n - 1), [(0, 0), (1, 0), (0, 1), (1, 1)]


def _prog2(k: int, t: int) -> Closed:
    _check(k >= 1, "k >= 1 required")
    _check(t >= 2, "t >= 2 required")
    a = 2 * k + 1
    return SumsetParams(a, (a**t + 1) // 2), [(0, 0), (0, 1), (t, 0), (t, 1)]


def _prog3(a: int, b: int, delta1: int, delta2: int) -> Closed:
    _check(delta1 in (0, 1) and delta2 in (0, 1), "deltas must be 0 or 1")
    _check(b > a > 1, "b > a > 1 required")
    _check(
        b**2 - b**delta2 == 2 * a**2 - 2 * a**delta1,
        "b^2 - b^d2 = 2a^2 - 2a^d1 required",
    )
    return SumsetParams(a, b), [(delta1, delta2), (2, delta2), (delta1, 2), (2, 2)]


def _prog4(t: int) -> Closed:
    _check(t >= 1, "t >= 1 required")
    return SumsetParams(8, 2 ** (3 * t + 1) - 1), [
        (t + 1, 0),
        (t + 1, 2),
        (2 * t + 1, 0),
        (2 * t + 1, 2),
    ]


def _prog5(t: int) -> Closed:
    _check(t >= 1, "t >= 1 required")
    return SumsetParams(2, 2 ** (t + 1) - 1), [
        (t + 3, 0),
        (t + 3, 2),
        (2 * t + 3, 0),
        (2 * t + 3, 2),
    ]


def _prog6(t: int) -> Closed:
    _check(t >= 1, "t >= 1 required")
    # final exponent is 2t+1 (it coincides with 3t only at t = 1)
    return SumsetParams(3, 3**t + 1), [(t + 1, 1), (t, 2), (2 * t, 2), (2 * t + 1, 1)]


def _prog7(s: int, t: int) -> Closed:
    _check(1 <= s <= t - 2, "1 <= s <= t - 2 required")
    return SumsetParams(2, 2**t - 3 * 2**s + 1), [
        (s, 1),
        (s + 1, 1),
        (t, 0),
        (s + 2, 1),
    ]


FAMILIES: dict[str, Callable[..., Closed]] = {
    "three-term-A": _three_term_a,
    "three-term-B": _three_term_b,
    "three-term-multdep": _three_term_multdep,
    "four-term-powers2-A": lambda d, c, k, j, m: _four_term_powers2(d, c, k, j, m, 1),
    "four-term-powers2-B": lambda d, c, k, j, m: _four_term_powers2(d, c, k, j, m, -1),
    "prog1": _prog1,
    "prog2": _prog2,
    "prog3": _prog3,
    "prog4": _prog4,
    "prog5": _prog5,
    "prog6": _prog6,
    "prog7": _prog7,
}
FAMILY_IDS = tuple(FAMILIES)


def generate(
    family_id: str, params: dict[str, int]
) -> tuple[SumsetParams, list[tuple[int, list[tuple[int, int]]]]]:
    """The base pair and the progression's (value, reps) terms for an admissible parameter assignment.

    Raises FamilyConstraintError for an unknown family, a missing or unknown
    parameter or a violated constraint, and ValueError if a closed form does
    not give a progression inside the sumset.
    """
    if family_id not in FAMILIES:
        raise FamilyConstraintError(f"unknown family {family_id!r}")
    recipe = FAMILIES[family_id]
    code = recipe.__code__  # every recipe is a plain positional function
    names = list(code.co_varnames[:code.co_argcount])
    missing = [n for n in names if n not in params]
    if missing:
        raise FamilyConstraintError(f"{family_id} needs parameters {missing}")
    unknown = [n for n in params if n not in names]
    if unknown:
        raise FamilyConstraintError(f"{family_id} takes no parameters {unknown}; its parameters are {names}")
    try:
        base, closed = recipe(**params)
    except FamilyConstraintError as exc:
        raise FamilyConstraintError(f"{family_id}: {exc}") from None
    return base, progression(base, [base.a**x + base.b**y for x, y in closed])


def find_prog3_pairs(limit: int) -> list[tuple[int, int, int, int]]:
    """All (a, b, delta1, delta2) with b^2 - b^d2 = 2a^2 - 2a^d1, 2 <= a < b, a <= limit.

    With X = 2b - d2 and Y = 2a - d1 the constraint is the Pell equation
    X^2 - 2Y^2 = n, n = 6d1 - 3d2 - 4, i.e. n = -4, -7, 2, -1 for
    (d1, d2) = (0, 0), (0, 1), (1, 0), (1, 1); n mod 8 forces X = d2 and
    Y = d1 (mod 2).  Every solution is +-(u + v sqrt 2)(3 + 2 sqrt 2)^k with
    k in Z and (u, v) in Nagell's box (Thms 108/108a: 0 <= v <= sqrt(n/2)
    for n > 0, 0 < v <= sqrt(-n) for n < 0).  (|X|, |Y|) is the same for
    a solution, its negative and its conjugate, and a negative k is the
    conjugate of a non-negative one, so the forward orbits of u + v sqrt 2
    and -u + v sqrt 2 give every (|X|, |Y|).  Along an orbit |Y| falls,
    then rises, from a seed v <= 2 < 2 * limit, so an orbit stops at its
    first |Y| > 2 * limit.  That is O(log limit) steps, and every row is
    rechecked exactly.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    out = set()
    for d1, d2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        n = 6 * d1 - 3 * d2 - 4
        for v in range(isqrt(n // 2 if n > 0 else -n) + 1):
            u = isqrt(max(n + 2 * v * v, 0))
            if u * u != n + 2 * v * v:
                continue
            for x, y in ((u, v), (-u, v)):
                while abs(y) <= 2 * limit:
                    a, b = (abs(y) + d1) // 2, (abs(x) + d2) // 2
                    if 2 <= a < b and b * b - b**d2 == 2 * a * a - 2 * a**d1:
                        out.add((a, b, d1, d2))
                    x, y = 3 * x + 4 * y, 2 * x + 3 * y
    return sorted(out)
