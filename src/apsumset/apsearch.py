"""Exhaustive search for k-term arithmetic progressions inside a sumset.

The first three terms s0 < s1 < s2 of any window in S = S_{a,b} satisfy
s0 + s2 = 2*s1, and each has some representation s_i = a^x_i + b^y_i, so
with the pair sums P = a^x0 + a^x2 and Q = b^y0 + b^y2

    P + Q == 2*a^x1 + 2*b^y1.

The search is a join on this identity over the two power ladders
A = {a^x < L} and B = {b^y < L}: the stored side forms P - 2w, the
streamed side 2w' - Q, and one ``set.intersection`` per streamed power w'
finds the equal keys.  Every 3-term window has such a match, so the join
is complete.  Which power goes to which side is a choice:

- One pair (`find_progressions`): the stored side is the pair sums of the
  shorter ladder less each doubled power of the longer one, the streamed
  side each doubled power of the shorter ladder less the pair sums of the
  longer one.  That forms about |A|*|B|*(|A| + |B|) / 2 keys, about half
  of what joining the values of S against both ladders forms, whatever
  the ratio of the ladders.
- One a and several b (`find_progressions_over`, the sweep): the stored
  side is P - 2*a^x1, which depends on a alone, and is built once for all
  the b; each b streams 2*b^y1 - Q.  That forms |A|^3 / 2 keys once and
  |B|^3 / 2 per b.  For a single pair that is about (|A| + |B|)(|A| - |B|)^2 / 2
  keys more than the split above, so the gain rests on the ladder ratio
  |A| / |B| and on how many b share the a-side: a job of n b pays
  |A|^3 / (2n) per b for it.  The sweep over a <= 8, b <= 120, in jobs of
  up to 64 b, forms 168,842 keys this way at 10^9 and 5,236,198 at 10^30,
  and would form 1,046,510 and 34,130,093 with the one-pair split.

Neither split forms the matches of a term with itself.  A pair sum is
strict (two distinct powers) or doubled (2*a^x).  A match of two doubled
sums gives s0 = s2 under both pairings below, so D = 0; every value meets
itself this way (x0 = x1 = x2 and y0 = y1 = y2, the key 0 of the a-side
split), and these would be most of the matches.  So each residue class is
joined in two phases: the stored strict sums meet the streamed doubled
sums, then the stored doubled sums are added and all of them meet the
streamed strict sums.  A match with D = 0 can still occur when one value
has two representations (11 = 2 + 9 = 8 + 3 in S_{2,3}); the check D >= 1
drops it.

A match is turned into windows exactly.  The streamed side gives w' and Q,
and P = key + 2w for each stored power w that makes it a pair sum.  A sum
of two powers of one base has one such pair (its digits in that base are
two 1s, or one 2, or for base 2 one 1).  The stored side looks P up in a
dict of its pair sums.  A streamed b keeps no dict: Q is decoded from its
ladder y.  For powers p <= q of base b, q <= p + q <= 2q <= b*q, and
2q = b*q only when b = 2 and p = q.  So top = y[bisect_right(y, Q) - 1],
the largest power at or below Q, is q and Q - top is p, except for a
doubled power of 2 whose double 2q is itself in the ladder: there top = Q,
and Q - top = 0 is the sign that p = q = top / 2.  The decode compares and
subtracts exact ints only, so it gives back the one pair of every Q.

Both pairings, s0, s2 = a^x0 + b^y0, a^x2 + b^y2 and
a^x0 + b^y2, a^x2 + b^y0, have s0 + s2 = P + Q = 2*s1, so
each is a 3-term progression in S.  One is kept when D = |s2 - s0| / 2 >= 1
and s2 <= L, so the join collects, per b, the set W3 of every 3-term
window (N, D) below the limit; (N, D) is deduplicated, because a window is
met once per representation of its terms.

Everything else is read off W3.  A k-term window (N, D) is k-2 overlapping
3-term windows of one D, so it is kept when (N + i*D, D) is in W3 for
i = 0..k-3; the last of them bounds its final term N + (k-1)*D by L.  Its
maximal flag asks whether N - D or N + k*D is in S.  As N, N + D <= L lie
in S, N - D is in S iff (N - D, D) is in W3; as N + (k-2)*D and
N + (k-1)*D lie in S, N + k*D <= L is in S iff (N + (k-2)*D, D) is in W3.
Only a next term above L is tested by `representations`.

Keys are partitioned by their residue mod m: a stored key = r (mod m)
comes from P = r + 2w and a streamed key from Q = 2w' - r, so with the
pair sums pre-bucketed by residue each key is formed exactly once, by
``map`` over one bucket.  With m = 1 the buckets are the two lists of pair
sums themselves.  m is the least prime at or above the stored key
count // _STORED_KEYS (1 when that is below 2), so one class stores about
_STORED_KEYS keys.  S_{2,3} at 10^30 stores 201,600 keys (2,016 pair sums
of 3 against 100 powers of 2) and streams 318,150; m = 53 keeps the
largest class at 3,805 keys, and 461 keys match.  Powers crowded into few
residues crowd a class: the a-side of a = 2 at 10^30 stores 505,000 keys
with m = 127, at which 2 has order 7, and its largest class holds 18,208.

Residues only partition: every key, term and difference is an exact Python
int, so nothing is filtered or decided by a fixed-width or floating value.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

from .numutil import is_prime, powers_below
from .sumset import SumsetParams, representations

# the join's stored side holds about this many keys per residue class
_STORED_KEYS = 4096


def progression(params: SumsetParams, values: list[int]) -> list[tuple[int, list[tuple[int, int]]]]:
    """The (value, reps) pair of each term of the progression through `values`.

    Raises ValueError unless D = values[1] - values[0] >= 1, every step
    equals D and every value lies in the sumset, so each reps list is
    non-empty and complete.
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
        terms.append((v, reps))
    return terms


def _pair_sums(ladder: list[int]) -> dict[int, tuple[int, int]]:
    """p + q -> (p, q) for every pair p <= q of one base's ladder."""
    return {p + q: (p, q) for i, p in enumerate(ladder) for q in ladder[i:]}


def _split(sums: list[int], m: int) -> list[tuple[int, ...]]:
    """`sums` by residue mod m; tuples, so the many empty classes of a short ladder share one object."""
    classes: list[list[int]] = [[] for _ in range(m)]
    for s in sums:
        classes[s % m].append(s)
    return [tuple(c) for c in classes]


def _classes(ladder: list[int], m: int) -> tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]]:
    """The pair sums of `ladder` by residue mod m: those of two distinct powers, then the doubled powers."""
    strict = [p + q for i, p in enumerate(ladder) for q in ladder[i + 1 :]]
    doubled = [2 * p for p in ladder]
    if m == 1:
        return [strict], [doubled]
    return _split(strict, m), _split(doubled, m)


def _decode(ladder: list[int], s: int) -> tuple[int, int]:
    """The powers p <= q of `ladder` with p + q == s, for a pair sum s of the ladder."""
    top = ladder[bisect_right(ladder, s) - 1]
    rest = s - top
    # only base 2 has a doubled power 2q that is itself a power of the ladder
    return (top >> 1, top >> 1) if rest == 0 else (rest, top)


def _modulus(keys: int) -> int:
    """The least prime at or above keys // _STORED_KEYS; 1 when that is below 2."""
    m = max(1, keys // _STORED_KEYS)
    while m > 1 and not is_prime(m):
        m += 1
    return m


def _add_windows(p: tuple[int, int], q: tuple[int, int], limit: int, found: set[tuple[int, int]]) -> None:
    """Add (N, D) for each pairing of the powers in p and q with D >= 1 and final term <= limit."""
    (p0, p2), (q0, q2) = p, q
    for s0, s2 in ((p0 + q0, p2 + q2), (p0 + q2, p2 + q0)):
        if s2 < s0:
            s0, s2 = s2, s0
        if s0 + 2 <= s2 <= limit:
            found.add((s0, (s2 - s0) >> 1))


def _join(
    x: list[int], u: list[int], streams: list[tuple[list[int], list[int]]], limit: int
) -> list[set[tuple[int, int]]]:
    """The 3-term windows (N, D) with D >= 1 and final term <= limit, one set per stream.

    The stored keys are P - 2w for the pair sums P of ladder x and the
    powers w of ladder u; a stream (v, y) is joined as 2w - Q for the
    powers w of ladder v and the pair sums Q of ladder y.
    """
    sums_x = _pair_sums(x)
    subtract = [2 * p for p in u]
    m = _modulus(len(sums_x) * len(subtract))
    strict_x, doubled_x = _classes(x, m)
    prepared = [([2 * p for p in v], y, _classes(y, m), set()) for v, y in streams]
    for r in range(m):
        stored: set[int] = set()
        # strict x sums meet doubled y sums, then all x sums meet strict y sums
        for classes_x, side in ((strict_x, 1), (doubled_x, 0)):
            for t in subtract:
                stored.update(map(t.__rsub__, classes_x[(r + t) % m]))
            for twice_v, y, classes_y, found in prepared:
                for t in twice_v:
                    for key in stored.intersection(map(t.__sub__, classes_y[side][(t - r) % m])):
                        q = _decode(y, t - key)
                        for w in subtract:
                            p = sums_x.get(key + w)
                            if p is not None:
                                _add_windows(p, q, limit, found)
    return [found for *_, found in prepared]


def _rows(params: SumsetParams, w3: set[tuple[int, int]], k: int, limit: int) -> list[tuple[int, int, bool]]:
    """The sorted (N, D, maximal) rows of the k-term windows whose k - 2 3-term windows all lie in w3."""
    rows = []
    for n, d in w3:
        term = n
        for _ in range(k - 3):
            term += d
            if (term, d) not in w3:
                break
        else:
            after = n + k * d
            extendable = (n - d, d) in w3 or (
                (n + (k - 2) * d, d) in w3 if after <= limit else bool(representations(params, after))
            )
            rows.append((n, d, not extendable))
    rows.sort()
    return rows


def find_progressions_over(a: int, bs: Sequence[int], k: int, limit: int) -> list[list[tuple[int, int, bool]]]:
    """The rows of `find_progressions` for S_{a,b}, one list per b of `bs`.

    Several b share one stored side built from a alone.  A single b stores
    the shorter ladder's pair sums less the longer ladder's doubled powers.
    Each b holds its pair sums, by residue class, and its 3-term windows
    until its rows are read off them.  Past a's keys, a b from 3,000 costs
    about 4.5 us at 10^9 and 38 us at 10^30 with a = 30 (m = 1), and a b
    from 195 about 1.1 ms at 10^30 with a = 2 (m = 127), most of it the
    2 * m * |B| intersections.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    all_params = [SumsetParams(a, b) for b in bs]
    if not all_params:
        return []
    ladder_a = powers_below(a, limit)
    ladders_b = [powers_below(b, limit) for b in bs]
    if len(bs) == 1:
        short, long = sorted((ladder_a, ladders_b[0]), key=len)
        w3 = _join(short, long, [(short, long)], limit)
    else:
        w3 = _join(ladder_a, ladder_a, [(lb, lb) for lb in ladders_b], limit)
    return [_rows(params, found, k, limit) for params, found in zip(all_params, w3)]


def find_progressions(params: SumsetParams, k: int, limit: int) -> list[tuple[int, int, bool]]:
    """All (N, D) with N, N+D, ..., N+(k-1)D in the sumset and N+(k-1)D <= limit.

    One (N, D, maximal) row per k-term window, sorted: maximal is true iff
    neither N-D nor N+kD is in the sumset.  Windows of a longer
    progression appear separately, and the flag tells them apart.  The
    rows carry no witnesses; `progression` builds them for a window.
    """
    (rows,) = find_progressions_over(params.a, [params.b], k, limit)
    return rows

