"""Membership, representation and bounded enumeration for S = {a^x + b^y}.

The two-base sumset S_{a,b} consists of every integer of the form
a^x + b^y with x, y >= 0, for fixed integer bases b > a > 1.  Its smallest
element is a^0 + b^0 = 2, and it has at most (log_a n + 1)(log_b n + 1)
elements up to n.  A witness that n is in the sumset is its exponent pair,
a plain (x, y) tuple with a^x + b^y = n, and a value with its witnesses is
a plain (value, reps) pair, reps as `representations` lists them.
"""

from __future__ import annotations

from collections import namedtuple


class SumsetParams(namedtuple("SumsetParams", "a b")):
    """The base pair (a, b) defining the sumset; requires b > a > 1."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> SumsetParams:
        if not (b > a > 1):
            raise ValueError(f"need b > a > 1, got a={a}, b={b}")
        return super().__new__(cls, a, b)


def representations(params: SumsetParams, n: int) -> list[tuple[int, int]]:
    """Complete, duplicate-free list of (x, y) with a^x + b^y = n, sorted by x.

    Walks y over the b-ladder and looks up the remainder in the a-ladder.
    The remainder n - b^y falls as y rises, so the lookup walks down the
    a-ladder from the first power >= n by exact division: the two ladders
    are merged like sorted lists, in about log_a n + log_b n steps, and
    neither is stored.  Each y gives at most one x, so the list is complete
    by construction; x falls as y rises, so it is reversed at the end.
    Every value is an exact Python int.  An empty list means n is not in
    the sumset; this is the package's one membership test.
    """
    a, b = params.a, params.b
    ax, x = 1, 0
    while ax < n:
        ax *= a
        x += 1
    out: list[tuple[int, int]] = []
    by, y = 1, 0
    while by < n:
        rest = n - by
        while ax > rest:
            ax //= a
            x -= 1
        if ax == rest:
            out.append((x, y))
        by *= b
        y += 1
    out.reverse()
    return out


def enumerate_up_to(params: SumsetParams, limit: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Every (value, reps) pair with value <= limit in S, ascending by value.

    A value with several representations appears once, carrying all of
    them, as `representations` lists them: x rises in the outer loop, so
    each list is built in x order and needs no sort.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    a, b = params.a, params.b
    found: dict[int, list[tuple[int, int]]] = {}
    ax, x = 1, 0
    while ax < limit:
        by, y = 1, 0
        while ax + by <= limit:
            found.setdefault(ax + by, []).append((x, y))
            by *= b
            y += 1
        ax *= a
        x += 1
    return [(v, found[v]) for v in sorted(found)]
