"""Exhaustive search for k-term arithmetic progressions inside a sumset.

Strategy: enumerate the sumset S = S_{a,b} up to the limit L (a set of
n ~ log_a L * log_b L values), then join it against the two power ladders
A = {a^x < L} and B = {b^y < L}.  The first three terms s0 < s1 < s2 of
any window satisfy s0 + s2 = 2*s1, and the middle term has some
representation s1 = a^x + b^y, so

    s0 - 2*a^x == 2*b^y - s2.

The streamed side forms the key s0 - 2*a^x for every value and every power
of a, the stored side the key 2*b^y - s2 for every value and every power
of b, and one ``set.intersection`` per power of a finds the equal keys.
Every window has such a match, so the join is complete for every k >= 3,
and it forms n * (|A| + |B|) keys where a scan of all value pairs would
test about n^2 / 2.

A matched key fixes s0 and a^x but not which b^y met it, so each match
walks the powers of b whose middle term a^x + b^y gives D >= 1 and a final
term s0 + (k-1)D <= L (two bisections; integer floor division makes the
cut exact) and keeps the third terms tb - key that lie in S.  Most matches
are the trivial s0 = s1 = s2, which the cut D >= 1 drops.  The remaining
k-3 terms are confirmed by set lookup, and (N, D) is deduplicated, because
a middle term with several representations is met once per representation.

The stored side is the b-side, the shorter ladder.  Keys are partitioned
by their residue mod m: a key = r (mod m) comes from s0 = r + 2*a^x on the
streamed side and from s2 = 2*b^y - r on the stored side, so with the
values pre-bucketed by residue each key is formed exactly once, by ``map``
over one bucket.  m is the least prime at or above n * |B| // _STORED_KEYS
(1 when that is below 2), so one class stores about _STORED_KEYS keys; a
prime spreads the values of most base pairs evenly, where a modulus
sharing a factor with their structure crowds a few classes.  S_{2,3} at
10^30 forms 396,093 stored keys (about 35 MiB as one set); m = 97 keeps
the largest class at 4,213 keys.  Bases congruent to each other modulo a
small m still crowd it: over a <= 30, b < 200 at 10^30 the largest class
is 24,375 keys, (6, 16) with m = 5.

Residues only partition: every key, term and difference is an exact Python
int, so nothing is filtered or decided by a fixed-width or floating value.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .numutil import is_prime
from .sumset import SumsetElement, SumsetParams, representations, value_set

# the join's stored side holds about this many keys per residue class
_STORED_KEYS = 4096


@dataclass(frozen=True)
class Progression:
    """An arithmetic progression N, N+D, N+2D, ... with witnesses.

    Every term carries its complete representation list; D >= 1 always.
    Build one with `progression`, which checks both.
    """

    N: int
    D: int
    terms: tuple[SumsetElement, ...]


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
    return Progression(values[0], d, tuple(terms))


def _doubled_ladder(base: int, limit: int) -> list[int]:
    """2 * base^e for every power base^e < limit, ascending."""
    out, power = [], 1
    while power < limit:
        out.append(2 * power)
        power *= base
    return out


def _find_pairs(params: SumsetParams, k: int, limit: int) -> tuple[list[tuple[int, int]], set[int]]:
    values = value_set(params, limit)
    twice_a = _doubled_ladder(params.a, limit)
    twice_b = _doubled_ladder(params.b, limit)
    m = max(1, len(values) * len(twice_b) // _STORED_KEYS)
    while m > 1 and not is_prime(m):
        m += 1
    buckets: list[list[int]] = [[] for _ in range(m)]
    for v in values:
        buckets[v % m].append(v)
    found: set[tuple[int, int]] = set()
    for r in range(m):
        stored: set[int] = set()
        for tb in twice_b:
            stored.update(map(tb.__sub__, buckets[(tb - r) % m]))
        for ta in twice_a:
            for key in stored.intersection(map(ta.__rsub__, buckets[(r + ta) % m])):
                s0 = key + ta
                # s1 = (ta + tb) / 2 with D = s1 - s0 >= 1 and s0 + (k-1)D <= limit
                low = 2 * s0 - ta
                lo = bisect_right(twice_b, low)
                hi = bisect_right(twice_b, low + 2 * ((limit - s0) // (k - 1)), lo)
                for t in values.intersection(map(key.__rsub__, twice_b[lo:hi])):
                    d = (t - s0) >> 1
                    for _ in range(k - 3):
                        t += d
                        if t not in values:
                            break
                    else:
                        found.add((s0, d))
    return list(found), values


def find_progressions(params: SumsetParams, k: int, limit: int) -> list[tuple[int, int, bool]]:
    """All (N, D) with N, N+D, ..., N+(k-1)D in the sumset and N+(k-1)D <= limit.

    One (N, D, maximal) row per k-term window, sorted: maximal is true iff
    neither N-D nor N+kD is in the sumset.  Windows of a longer
    progression appear separately, and the flag tells them apart.  The
    rows carry no witnesses; `progression` builds them for a window.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    pairs, values = _find_pairs(params, k, limit)
    pairs.sort()
    rows = []
    for n, d in pairs:
        before = n - d
        after = n + k * d
        extendable = (before >= 2 and before in values) or (
            after in values if after <= limit else bool(representations(params, after))
        )
        rows.append((n, d, not extendable))
    return rows


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
    rows = find_progressions(params, 3, limits[-1])
    finals = [(n + 2 * d, flag) for n, d, flag in rows]
    return [
        (lim, sum(f <= lim for f, _ in finals), sum(flag and f <= lim for f, flag in finals))
        for lim in limits
    ]
