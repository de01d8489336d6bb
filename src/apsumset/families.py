"""Constructive generators for the known infinite progression families.

Each family is a closed-form recipe producing, for admissible parameters, a
3- or 4-term arithmetic progression whose terms all lie in a sumset
S_{a,b}.  Generators validate their parameter constraints and build the
progression from the closed form through ``apsearch.progression``, which
checks every step and every term's membership exactly; ``verify``
re-checks a progression through the sumset oracle alone, so a
transcription slip in any formula cannot survive unnoticed.

Families:

* three-term-A / three-term-B  -- a = 2, b = 2^k + 1 (two shapes);
* three-term-multdep           -- multiplicatively dependent bases a^c = b^d;
* four-term-powers2-A / -B     -- (a, b) = (2^d, 2^c), gcd(c, d) = 1,
                                  dk - cj = +1 / -1;
* prog1 .. prog7               -- seven sporadic-parameter shapes, e.g.
                                  prog1: (a, b, N, D) = (n, 2n-1, 2, n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .apsearch import Progression, progression
from .numutil import iroot
from .sumset import SumsetParams, representations

FAMILY_IDS = (
    "three-term-A",
    "three-term-B",
    "three-term-multdep",
    "four-term-powers2-A",
    "four-term-powers2-B",
    "prog1",
    "prog2",
    "prog3",
    "prog4",
    "prog5",
    "prog6",
    "prog7",
)


class FamilyConstraintError(ValueError):
    """A family parameter violates its admissibility constraint."""


@dataclass(frozen=True)
class FamilySpec:
    family_id: str
    params: dict[str, int]

    def __post_init__(self) -> None:
        if self.family_id not in FAMILY_IDS:
            raise FamilyConstraintError(f"unknown family {self.family_id!r}")

    def require(self, *names: str) -> list[int]:
        missing = [n for n in names if n not in self.params]
        if missing:
            raise FamilyConstraintError(
                f"{self.family_id} needs parameters {missing}"
            )
        return [self.params[n] for n in names]


def minimal_power_base(n: int) -> tuple[int, int]:
    """Smallest g with g^e = n (e maximal); returns (g, e)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    for e in range(n.bit_length(), 1, -1):
        g = iroot(n, e)
        if g >= 2 and g**e == n:
            return g, e
    return n, 1


def _check(cond: bool, family: str, msg: str) -> None:
    if not cond:
        raise FamilyConstraintError(f"{family}: {msg}")


def _recipe(spec: FamilySpec) -> tuple[SumsetParams, list[tuple[int, int]]]:
    """Validate the spec and return (base pair, closed-form exponent pairs)."""
    fid = spec.family_id

    if fid == "three-term-A":
        k, j = spec.require("k", "j")
        _check(k >= 1, fid, "k >= 1 required")
        _check(j >= 0, fid, "j >= 0 required")
        return SumsetParams(2, 2**k + 1), [(k, 0), (j, 1), (j + 1, 1)]

    if fid == "three-term-B":
        k, j = spec.require("k", "j")
        _check(k >= 1, fid, "k >= 1 required")
        _check(j >= k + 1, fid, "j >= k + 1 required")
        return SumsetParams(2, 2**k + 1), [(k + 1, 0), (j, 1), (j + 1, 0)]

    if fid == "three-term-multdep":
        a, b, k, j = spec.require("a", "b", "k", "j")
        _check(b > a > 1, fid, "b > a > 1 required")
        ga, ea = minimal_power_base(a)
        gb, eb = minimal_power_base(b)
        _check(ga == gb, fid, f"{a} and {b} are not multiplicatively dependent")
        g = gcd(ea, eb)
        c, d = eb // g, ea // g  # minimal with a^c = b^d
        _check(k >= 0, fid, "k >= 0 required")
        _check(j >= 1, fid, "j >= 1 required")
        return SumsetParams(a, b), [
            (k * c, k * d),
            ((k + j) * c, k * d),
            ((k + j) * c, (k + j) * d),
        ]

    if fid in ("four-term-powers2-A", "four-term-powers2-B"):
        d, c, k, j, m = spec.require("d", "c", "k", "j", "m")
        _check(0 < d < c, fid, "0 < d < c required")
        _check(gcd(c, d) == 1, fid, "gcd(c, d) = 1 required")
        _check(k >= 1 and j >= 1 and m >= 1, fid, "k, j, m >= 1 required")
        want = 1 if fid.endswith("A") else -1
        _check(d * k - c * j == want, fid, f"dk - cj = {want} required")
        # exponents of 2 below; divide by d (resp. c) for the (x, y) pairs
        if want == 1:
            pairs2 = [
                (k * d, j * c),
                (k * d, j * c + m * c * d),
                (k * d + m * c * d, j * c),
                (k * d + m * c * d, j * c + m * c * d),
            ]
        else:
            pairs2 = [
                (k * d, j * c),
                (k * d + m * c * d, j * c),
                (k * d, j * c + m * c * d),
                (k * d + m * c * d, j * c + m * c * d),
            ]
        closed = [(e1 // d, e2 // c) for e1, e2 in pairs2]
        for (e1, e2), (x, y) in zip(pairs2, closed):
            _check(e1 == x * d and e2 == y * c, fid, "exponent not divisible")
        return SumsetParams(2**d, 2**c), closed

    if fid == "prog1":
        (n,) = spec.require("n")
        _check(n >= 2, fid, "n >= 2 required")
        return SumsetParams(n, 2 * n - 1), [(0, 0), (1, 0), (0, 1), (1, 1)]

    if fid == "prog2":
        k, t = spec.require("k", "t")
        _check(k >= 1, fid, "k >= 1 required")
        _check(t >= 2, fid, "t >= 2 required")
        a = 2 * k + 1
        return SumsetParams(a, (a**t + 1) // 2), [(0, 0), (0, 1), (t, 0), (t, 1)]

    if fid == "prog3":
        a, b, d1, d2 = spec.require("a", "b", "delta1", "delta2")
        _check(d1 in (0, 1) and d2 in (0, 1), fid, "deltas must be 0 or 1")
        _check(b > a > 1, fid, "b > a > 1 required")
        _check(
            b**2 - b**d2 == 2 * a**2 - 2 * a**d1,
            fid,
            "b^2 - b^d2 = 2a^2 - 2a^d1 required",
        )
        return SumsetParams(a, b), [(d1, d2), (2, d2), (d1, 2), (2, 2)]

    if fid == "prog4":
        (t,) = spec.require("t")
        _check(t >= 1, fid, "t >= 1 required")
        return SumsetParams(8, 2 ** (3 * t + 1) - 1), [
            (t + 1, 0),
            (t + 1, 2),
            (2 * t + 1, 0),
            (2 * t + 1, 2),
        ]

    if fid == "prog5":
        (t,) = spec.require("t")
        _check(t >= 1, fid, "t >= 1 required")
        return SumsetParams(2, 2 ** (t + 1) - 1), [
            (t + 3, 0),
            (t + 3, 2),
            (2 * t + 3, 0),
            (2 * t + 3, 2),
        ]

    if fid == "prog6":
        (t,) = spec.require("t")
        _check(t >= 1, fid, "t >= 1 required")
        # final exponent is 2t+1 (it coincides with 3t only at t = 1)
        return SumsetParams(3, 3**t + 1), [(t + 1, 1), (t, 2), (2 * t, 2), (2 * t + 1, 1)]

    if fid == "prog7":
        s, t = spec.require("s", "t")
        _check(1 <= s <= t - 2, fid, "1 <= s <= t - 2 required")
        return SumsetParams(2, 2**t - 3 * 2**s + 1), [
            (s, 1),
            (s + 1, 1),
            (t, 0),
            (s + 2, 1),
        ]

    raise FamilyConstraintError(f"unknown family {fid!r}")


def family_params(spec: FamilySpec) -> SumsetParams:
    """The base pair (a, b) a spec generates into."""
    return _recipe(spec)[0]


def generate(spec: FamilySpec) -> Progression:
    """The concrete progression for an admissible parameter assignment.

    Raises FamilyConstraintError naming the violated constraint otherwise.
    """
    params, closed = _recipe(spec)
    return progression(params, [params.a**x + params.b**y for x, y in closed])


def verify(prog: Progression, params: SumsetParams) -> bool:
    """True iff the terms are in progression with D >= 1 and all belong to S.

    Membership goes through the sumset oracle; the generator's closed forms
    are deliberately not trusted here.
    """
    return prog.D >= 1 and all(representations(params, v) for v in prog.term_values())


def find_prog3_pairs(limit: int) -> list[tuple[int, int, int, int]]:
    """All (a, b, delta1, delta2) with b^2 - b^d2 = 2a^2 - 2a^d1, a <= limit.

    Enumerates a and solves the quadratic in b exactly (integer square
    root); each returned pair generates a valid prog3 progression.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    out = []
    for d1 in (0, 1):
        for d2 in (0, 1):
            for a in range(2, limit + 1):
                rhs = 2 * a**2 - 2 * a**d1
                if d2 == 0:
                    # b^2 = rhs + 1
                    b = isqrt(rhs + 1)
                    if b * b == rhs + 1 and b > a:
                        out.append((a, b, d1, d2))
                else:
                    # b^2 - b = rhs; discriminant must be a perfect square
                    disc = 1 + 4 * rhs
                    r = isqrt(disc)
                    if r * r == disc and (1 + r) % 2 == 0:
                        b = (1 + r) // 2
                        if b > a:
                            out.append((a, b, d1, d2))
    out.sort()
    return out

