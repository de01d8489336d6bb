"""Exhaustive search for k-term arithmetic progressions inside a sumset.

Strategy: enumerate the sumset up to the limit (a set of polylog size),
then for every ordered value pair (s0, s1) with s1 > s0 take N = s0,
D = s1 - s0 and test the remaining k-2 terms by hash lookup.  Complete by
construction: any progression's first two terms are such a pair.

The loop over s1 runs in C.  The final term N + (k-1)D = (k-1)*s1 - (k-2)*s0
grows with s1, so for each s0 the admissible s1 are exactly the sorted
values up to (limit + (k-2)*s0) // (k-1), found by bisection; integer
floor division makes that cut exact.  The candidate third terms
2*s1 - s0 of that range are formed by ``map`` over a list of doubled
values, and one ``set.intersection`` keeps those in the sumset.  Each hit
fixes D = (t - s0) / 2, and the remaining k-3 terms are confirmed by set
lookup.  All arithmetic is on Python ints, so nothing is filtered or
decided by a fixed-width or floating value.  The range can be empty for
one s0 and not for a later one, because the gap to the next value is not
monotone (in S_{2,3} at limit 257 the range is empty at s0 = 155 while
245, 251, 257 follows), so the outer loop visits every value.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .sumset import SumsetElement, SumsetParams, representations, value_set


@dataclass(frozen=True)
class Progression:
    """An arithmetic progression N, N+D, ..., N+(length-1)D with witnesses.

    Every term carries its complete representation list; D >= 1 always.
    Build one with `progression`, which checks both.
    """

    N: int
    D: int
    length: int
    terms: tuple[SumsetElement, ...]

    def term_values(self) -> list[int]:
        return [self.N + i * self.D for i in range(self.length)]


def progression(params: SumsetParams, values: list[int]) -> Progression:
    """The progression through `values`, each term with its complete witnesses.

    Raises ValueError unless D = values[1] - values[0] >= 1, every step
    equals D and every value lies in the sumset.
    """
    d = values[1] - values[0]
    if d < 1:
        raise ValueError(f"difference {d} is not positive")
    if any(v - u != d for u, v in zip(values, values[1:])):
        raise ValueError(f"terms {values} are not in progression")
    terms = []
    for v in values:
        reps = representations(params, v)
        if not reps:
            raise ValueError(f"{v} is not in S_{{{params.a},{params.b}}}")
        terms.append(SumsetElement(v, tuple(reps)))
    return Progression(values[0], d, len(values), tuple(terms))


def _find_pairs(params: SumsetParams, k: int, limit: int) -> tuple[list[tuple[int, int]], set[int]]:
    values = value_set(params, limit)
    ordered = sorted(values)
    doubled = [2 * v for v in ordered]
    pairs: list[tuple[int, int]] = []
    for i, s0 in enumerate(ordered):
        hi = bisect_right(ordered, (limit + (k - 2) * s0) // (k - 1), i + 1)
        for t in values.intersection(map(s0.__rsub__, doubled[i + 1 : hi])):
            d = (t - s0) >> 1
            for _ in range(k - 3):
                t += d
                if t not in values:
                    break
            else:
                pairs.append((s0, d))
    return pairs, values


def _scan(params: SumsetParams, k: int, limit: int) -> tuple[list[tuple[int, int]], list[bool]]:
    """Sorted (N, D) windows up to the limit, with their maximal flags."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    pairs, values = _find_pairs(params, k, limit)
    pairs.sort()
    flags = []
    for n, d in pairs:
        before = n - d
        after = n + k * d
        extendable = (before >= 2 and before in values) or (
            after in values if after <= limit else bool(representations(params, after))
        )
        flags.append(not extendable)
    return pairs, flags


def find_progressions(params: SumsetParams, k: int, limit: int) -> list[tuple[Progression, bool]]:
    """All (N, D) with N, N+D, ..., N+(k-1)D in the sumset and N+(k-1)D <= limit.

    One row per (N, D, k) window, sorted by (N, D): the progression with
    its witnesses, and the maximal flag (true iff neither N-D nor N+kD is
    in the sumset).  Windows of a longer progression appear separately,
    and the flag tells them apart.
    """
    pairs, flags = _scan(params, k, limit)
    return [
        (progression(params, [n + i * d for i in range(k)]), flag)
        for (n, d), flag in zip(pairs, flags)
    ]


def count_3term_stable(params: SumsetParams, limits: list[int]) -> list[tuple[int, int, int]]:
    """One (limit, windows, maximal) row per limit of an ascending ladder.

    ``windows`` counts the distinct (N, D) 3-term progressions with final
    term N + 2D <= limit; ``maximal`` counts those whose one-step
    extensions in either direction leave the sumset.

    One scan at the largest limit serves the whole ladder: a window counts
    at limit L iff its final term N + 2D is <= L, and its maximal flag
    does not depend on L, since both neighbours are tested for plain
    sumset membership.
    """
    if any(l2 < l1 for l1, l2 in zip(limits, limits[1:])):
        raise ValueError("limits must be ascending")
    if not limits:
        return []
    if limits[0] < 2:
        raise ValueError(f"limit must be >= 2, got {limits[0]}")
    pairs, flags = _scan(params, 3, limits[-1])
    finals = [(n + 2 * d, flag) for (n, d), flag in zip(pairs, flags)]
    return [
        (lim, sum(f <= lim for f, _ in finals), sum(flag and f <= lim for f, flag in finals))
        for lim in limits
    ]
