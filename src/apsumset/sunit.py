"""Complete bounded solvers for signed two-prime exponential equations.

* ``solve_pattern``     -- every boxed exponent assignment solving
                           sum c_i * p^{e_i} * q^{f_i} = 0 that passes an
                           optional side predicate, each as a plain pair
                           (assignment, signed term values), by a block join;
* ``deze_tijdeman_4term`` -- p^x q^y +- p^z +- q^w +- 1 = 0 and
                           p^x +- q^y +- p^z +- q^w = 0, all powers <= 2^15;
* ``pillai_difference_table`` -- p^x - p^y = q^z - q^w > 0;
* ``bajpai_bennett_5term`` -- +-2^a1 3^b1 +- ... +- 2^a5 3^b5 = 0 under the
                           bounds max term <= 3^12, a_i <= 19, b_i <= 12,
                           by a walk in canonical orientation;
* ``deweger_3term``     -- x + y = z in coprime 13-smooth positive integers,
                           by a join over prime-support buckets.

Block join.  A term is a (coefficient, p_exp, q_exp) triple, each exponent
an int or a variable name, and ``Pattern`` checks it.  ``solve_pattern``
puts terms that share a variable into one block, so blocks have disjoint
variables and the box is the product of the blocks' boxes; a term with no
variable is a block of one row.  Each block
is enumerated over its own variables, a row being its sum and exponents.
The blocks are split into two sides by greedy balance of their boxes; the
smaller side is stored in a dict keyed by its sum (at most the square root
of the box), and the larger side is streamed, its largest block row by row,
and probed for the complementary sum.  Row sums are folded block by block:
each side's other blocks become a list of (sum, rows) pairs, one addition
per block, so no combination is summed again.  The fold beside the table
is never larger than the table: when the last block joined the streamed
side, that side was the smaller one, so the streamed product over its
largest block is at most the stored product.  Every point of the box is
exactly one (streamed, stored) pair of row combinations, and the probe
meets it iff the terms sum to zero, so the join is complete and yields
each assignment once.  A pattern whose terms all share variables is one block, streamed
against the one-row empty side.  Sums are exact Python ints.  Each match
builds one dict from variable to exponent: the side predicate reads it and
must not change it, and the pattern's term evaluator turns a kept one into
its term values.  The budget counts the whole box, which keeps the stored
side near its square root, and then the row words: each block's box times
the 64-bit words of its widest term, which keeps rows of huge powers out,
a fixed term's one row among them.  Both are checked before any power is
computed.  Deze-Tijdeman is one pattern per shape and sign vector, with
the pairs shape's swap rule as a side predicate; Pillai is
p^x - p^y - q^z + q^w = 0 with x > y, z > w.

Canonical orientation.  Bajpai-Bennett's k = 5 terms are distinct
monomials p^e q^f (p = 2, q = 3) under shared exponent bounds and a value
bound, so a solution is a set of distinct monomials with signs, and the
walk ``_canonical_walk`` meets each once: in decreasing magnitude at
indices i0 > m_1 > ... > lo > j > l of the n sorted monomials within the
bound, i0's sign +.  The walk takes any k >= 4.  Walking lo upward, the
signed pair sums of j < lo are stored, and for each choice of middle
indices and walked signs a set intersection over a window of the values
above finds i0.  With v the value at lo, every stored sum s has
|s| <= values[lo-1] + values[lo-2] < 2v, and a match needs i0's value
u = rest - s, where rest is minus the walked sum; so u lies in
(rest - 2v, rest + 2v), a slice taken by bisection.  Two exact cuts come
first.  A row (lo and its middle indices) is skipped before its 2^(k-3)
sign patterns when the first value above it is at least t + 2v, with t
the sum of the walked magnitudes: rest <= t under every sign pattern, so
no window of the row holds a value.  A stored pair is skipped when
gcd(u, walked values, pair) != 1 before its signed tuple is built; that
gcd is the primitivity test itself, so the walk yields exactly the
primitive solutions.  The budget counts the rows, 4 C(n-1, 2) pair sums
plus 2^(k-3) C(n, k-3) walked signed tuples.

Support buckets.  In a de Weger solution gcd(x, y) = 1 and z = x + y make
x, y and z pairwise coprime, so their prime-support masks are pairwise
disjoint.  The smooth numbers up to z_limit are generated per support,
each straight into the sorted bucket of its exact mask
(``numutil.smooth_buckets``), never grouped after the fact.  Two terms
share a bucket only if both masks are empty, which is 1 + 1 = 2, so every
solution lies in exactly one unordered triple of pairwise disjoint masks,
two of them equal only for the empty pair.  The join makes one pass per
such triple, its buckets ordered by size as S, M and U, and probes U, a
set, twice in one C-level intersection each.  The sums w + v of S x M
find the solutions whose sum lies in U; M is cut once to
v <= max(U) - min(S), since v = z - w there.  The differences |w - v|
find those whose sum lies in S (w - h in M) or in M (w + h in M), U
holding a summand h.  The sum's bucket is one of S, M and U and decides
the probe and branch, and within a branch the hit and the w of S fix the
solution, so each solution is found exactly once; scanning S against M's
set recovers every solution behind each hit, and all arithmetic is on
Python ints.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from math import comb, gcd, prod
from operator import add, itemgetter, sub

from .numutil import PRIME_LIMIT, PrimeSet, factor_over, ilog, is_prime, smooth_buckets

DEFAULT_BUDGET = 50_000_000
DEWEGER_PRIMES = PrimeSet((2, 3, 5, 7, 11, 13))
DEWEGER_Z_LIMIT = 10**12


class SearchBudgetExceeded(RuntimeError):
    """Raised instead of silently truncating an oversized enumeration."""

    def __init__(self, estimate: int, budget: int, unit: str = "assignments"):
        super().__init__(f"search space of {estimate} {unit} exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


class Pattern(namedtuple("Pattern", "p q terms var_bounds")):
    """A signed two-prime equation with boxed exponent variables.

    A term is a (coefficient, p_exp, q_exp) triple, the monomial c * p^e * q^f
    with int or variable-name exponents, and the pattern checks each term.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int, terms: tuple[tuple[int, int | str, int | str], ...],
                var_bounds: tuple[tuple[str, int], ...]) -> Pattern:
        self = super().__new__(cls, p, q, terms, var_bounds)
        for c, e, f in terms:
            if c == 0:
                raise ValueError("coefficient must be nonzero")
            for x in (e, f):
                if isinstance(x, int) and x < 0:
                    raise ValueError(f"fixed exponent must be >= 0, got {x}")
        if max(p, q) >= PRIME_LIMIT:
            raise ValueError(f"p and q must be below {PRIME_LIMIT}, got {p}, {q}")
        if not (is_prime(p) and is_prime(q) and p != q):
            raise ValueError(f"p, q must be distinct primes, got {p}, {q}")
        if len(terms) < 2:
            raise ValueError("pattern needs at least 2 terms")
        bound = dict(var_bounds)
        if len(bound) != len(var_bounds):
            raise ValueError(f"variable declared twice in {list(self.variables)}")
        for name, b in var_bounds:
            if b < 0:
                raise ValueError(f"bound of {name!r} must be >= 0, got {b}")
        used = {e for t in terms for e in t[1:] if isinstance(e, str)}
        if used != bound.keys():
            raise ValueError(f"variable mismatch: terms use {sorted(used)}, bounds declare {sorted(bound)}")
        return self

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.var_bounds)

    def term_values(self, assignment: Sequence[int]) -> tuple[int, ...]:
        """The signed term values c * p^e * q^f at exponents given in declared variable order."""
        if len(assignment) != len(self.var_bounds) or min(assignment, default=0) < 0:
            raise ValueError(f"assignment {list(assignment)} needs {len(self.var_bounds)} nonnegative exponents")
        return self._evaluate(dict(zip(self.variables, assignment)))

    def _evaluate(self, env: dict[str, int]) -> tuple[int, ...]:
        """The signed term values at exponents `env`, which maps every variable; a fixed exponent is its own."""
        return tuple(c * self.p ** env.get(e, e) * self.q ** env.get(f, f) for c, e, f in self.terms)


def solve_pattern(
    pattern: Pattern,
    side_predicate: Callable[[dict[str, int]], bool] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (assignment, term values) within bounds satisfying the equation and the side predicate.

    The assignment holds the exponents in declared variable order
    (``pattern.variables``) and the term values are the signed terms in
    term order.  Output is in lexicographic order of the assignment and
    complete over the box; see the module docstring for the block join,
    whose one dict per match the side predicate reads and must not change.
    A search larger than `budget` raises SearchBudgetExceeded before
    anything is enumerated: the block join counts the whole box and
    its row words.
    """
    names = pattern.variables
    groups: list[tuple[set[str], list[int]]] = []
    for i, t in enumerate(pattern.terms):
        own = {e for e in t[1:] if isinstance(e, str)}
        touching = [g for g in groups if g[0] & own]
        groups = [g for g in groups if not g[0] & own]
        groups.append((own.union(*(g[0] for g in touching)), sorted([i, *(j for g in touching for j in g[1])])))

    bound = dict(pattern.var_bounds)
    boxes = {(tuple(v for v in names if v in own), tuple(ids)): prod(bound[v] + 1 for v in own) for own, ids in groups}
    sides: tuple[list, list] = ([], [])
    sizes = [1, 1]
    for b in sorted(boxes, key=boxes.get, reverse=True):
        k = 0 if sizes[0] <= sizes[1] else 1
        sides[k].append(b)
        sizes[k] *= boxes[b]
    if sizes[0] * sizes[1] > budget:
        raise SearchBudgetExceeded(sizes[0] * sizes[1], budget)
    # each block's rows times the 64-bit words of its widest term, whose bits p <= 2^bit_length(p - 1) bounds
    bits = [abs(c).bit_length() + bound.get(e, e) * (pattern.p - 1).bit_length()
            + bound.get(f, f) * (pattern.q - 1).bit_length() for c, e, f in pattern.terms]
    words = sum(box * -(-max(bits[i] for i in ids) // 64) for (_, ids), box in boxes.items())
    if words > budget:
        raise SearchBudgetExceeded(words, budget, "row words")
    # on a tie the side holding the largest block streams, so the streamed side is never empty
    stored, streamed = sides if sizes[0] < sizes[1] else sides[::-1]

    def fold(blocks):
        """(sum, rows) of each choice of one row per block, the rows in block order."""
        folded = [(0, ())]
        for b in blocks:
            rows = list(_block_rows(pattern, *b))
            folded = [(s + r[0], (*combo, r)) for s, combo in folded for r in rows]
        return folded

    table: dict[int, list[tuple]] = {}
    for s, combo in fold(stored):
        table.setdefault(s, []).append(combo)
    tail = fold(streamed[1:])
    found = []
    for row in _block_rows(pattern, *streamed[0]):
        for s, combo in tail:
            for other in table.get(-row[0] - s, ()):
                env = {v: a for (block_vars, _), (_, assign) in zip(streamed + stored, (row, *combo, *other))
                       for v, a in zip(block_vars, assign)}
                if side_predicate is None or side_predicate(env):
                    found.append((tuple(env[v] for v in names), pattern._evaluate(env)))
    found.sort(key=itemgetter(0))
    return found


def _block_rows(pattern: Pattern, block_vars: tuple[str, ...], term_ids: tuple[int, ...]) -> Iterator[tuple]:
    """(sum, assignment) of each row of one block, the assignment in block variable order.

    Exponents index an extended assignment: the block's variables, then
    the fixed exponents its terms use.
    """
    terms = [pattern.terms[i] for i in term_ids]
    fixed = tuple({e for t in terms for e in t[1:] if isinstance(e, int)})
    slot = {e: k for k, e in enumerate(block_vars + fixed)}
    spec = [(c, slot[e], slot[f]) for c, e, f in terms]
    bound = dict(pattern.var_bounds)
    for assign in itertools.product(*(range(bound[v] + 1) for v in block_vars)):
        e = assign + fixed
        yield sum([c * pattern.p ** e[i] * pattern.q ** e[j] for c, i, j in spec]), assign


def _canonical_walk(
    p: int, q: int, k: int, e_max: int, f_max: int, value_bound: int, budget: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(exponents, signed term values) of each primitive zero sum of k >= 4 distinct monomials, once.

    The monomials are p^e q^f <= value_bound (>= 1) with e <= e_max and
    f <= f_max.  The term values are in canonical orientation (module
    docstring) and the exponents are each term's (e, f) in term order.
    """
    # the largest admissible p-exponent beside each admissible q^f
    e_tops = [min(e_max, ilog(value_bound // q**f, p)) for f in range(min(f_max, ilog(value_bound, q)) + 1)]
    n = sum(e_tops) + len(e_tops)
    rows = 4 * comb(max(n - 1, 0), 2) + 2 ** (k - 3) * comb(n, k - 3)
    if rows > budget:
        raise SearchBudgetExceeded(rows, budget, "join rows")
    exponents = {p**e * q**f: (e, f) for f, top in enumerate(e_tops) for e in range(top + 1)}
    values = sorted(exponents)

    negated = [-u for u in values]  # one int per negative term, shared by all its pairs
    pairs: dict[int, list[tuple[int, int]]] = {}
    for lo, v in enumerate(values):
        high, minus = values[lo - 1], negated[lo - 1]
        for low, nlow in zip(values[:max(lo - 1, 0)], negated):  # admit the pairs (j, l) with l < j = lo - 1
            for pair in (high, low), (high, nlow), (minus, low), (minus, nlow):
                pairs.setdefault(pair[0] + pair[1], []).append(pair)
        for mid in itertools.combinations(range(lo + 1, len(values)), k - 4):
            start = (mid[-1] if mid else lo) + 1  # i0 lies above the walked indices
            tops = (v, *map(values.__getitem__, mid))
            if start == len(values) or values[start] >= sum(tops) + 2 * v:
                continue  # rest <= sum(tops), so no i0 lies below rest + 2v for any signs
            for walked in itertools.product(*((u, -u) for u in tops)):
                rest = -sum(walked)
                # a stored pair sum is below 2v in magnitude, so i0's value lies within 2v of rest
                first = bisect_right(values, rest - 2 * v, start)
                last = bisect_left(values, rest + 2 * v, first)
                if first == last:
                    continue
                for target in pairs.keys() & map(rest.__sub__, values[first:last]):
                    u = rest - target
                    common = gcd(u, *walked)  # a pair sharing a factor with it is not primitive
                    for pair in pairs[target]:
                        if gcd(common, *pair) == 1:
                            signed = (u, *walked[::-1], *pair)
                            yield sum(map(exponents.__getitem__, map(abs, signed)), ()), signed


# ---------------------------------------------------------------------------
# de Weger: x + y = z in coprime 13-smooth positive integers
# ---------------------------------------------------------------------------


class TripleSolution(namedtuple("TripleSolution", "x y z")):
    """A solution of x + y = z with x <= y, gcd(x, y) = 1, xyz smooth."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int) -> TripleSolution:
        if x + y != z or x > y or gcd(x, y) != 1:
            raise ValueError(f"invalid triple ({x}, {y}, {z})")
        return super().__new__(cls, x, y, z)


def deweger_3term(
    primes: PrimeSet = DEWEGER_PRIMES, z_limit: int = DEWEGER_Z_LIMIT
) -> list[TripleSolution]:
    """Complete list of x + y = z, x <= y, gcd(x,y) = 1, xyz smooth, z <= z_limit.

    The smooth numbers are built straight into sorted buckets by support
    mask (`smooth_buckets`).  One pass per unordered triple of pairwise
    disjoint buckets probes the largest with the sums of the other two,
    the middle bucket cut once by the bucket extremes, and with their
    absolute differences, and recovers each hit's summands by a scan of the
    smallest; 1 + 1 = 2 is the empty bucket paired with itself, and each
    solution is found once, by the bucket that holds its sum.
    See the module docstring for why this is complete.  Sorted by (z, x).
    z_limit above 2^63 - 1 is refused, which bounds the enumeration.
    """
    if z_limit < 2:
        raise ValueError(f"z_limit must be >= 2, got {z_limit}")
    if z_limit > 2**63 - 1:
        raise ValueError(f"z_limit must be <= 2**63 - 1, got {z_limit}")

    buckets = smooth_buckets(primes, z_limit)
    sets = {m: set(b) for m, b in buckets.items()}

    found = []
    for s, t, u in itertools.combinations_with_replacement(sorted(buckets, key=lambda m: len(buckets[m])), 3):
        if s & t or (s | t) & u or s == u:
            continue  # two equal masks only for the empty pair 1 + 1 = 2
        small, mid, probe, members = buckets[s], buckets[t], sets[u], sets[t]
        # sums w + v probe U as the sum bucket
        cut = mid[:bisect_right(mid, buckets[u][-1] - small[0])]
        hits = probe.intersection(itertools.starmap(add, itertools.product(small, cut)))
        found += [(w, h - w, h) for h in hits for w in small if h - w in members]
        # differences |w - v| probe U as a summand bucket, the sum lying in S or in M
        hits = probe.intersection(map(abs, itertools.starmap(sub, itertools.product(small, mid))))
        found += [(h, w - h, w) for h in hits for w in small if w - h in members]
        found += [(w, h, w + h) for h in hits for w in small if w + h in members]
    found.sort(key=lambda t: (t[2], min(t[0], t[1])))  # z and the smaller summand fix a solution
    return [TripleSolution(min(x, y), max(x, y), z) for x, y, z in found]


def triple_ord_profile(sol: TripleSolution, primes: PrimeSet = DEWEGER_PRIMES) -> dict[int, int]:
    """ord_p(x*y*z) for each prime of the set."""
    return factor_over(sol.x * sol.y * sol.z, primes)[0]


# ---------------------------------------------------------------------------
# Deze-Tijdeman: four-term shapes with all powers <= 2^15
# ---------------------------------------------------------------------------

DT_POWER_BOUND = 2**15
SHAPE_PRODUCT = "pxqy+-pz+-qw+-1"
SHAPE_PAIRS = "px+-qy+-pz+-qw"


class FourTermSolution(namedtuple("FourTermSolution", "shape signs exponents terms")):
    """A solution of one of the two four-term shapes, tagged by sign vector.

    ``terms`` are the four signed summands in shape order; they sum to 0.
    The leading term's sign is normalized positive, and within the pairs
    shape same-signed same-prime exponents are ordered descending, so each
    solution appears exactly once.
    """

    __slots__ = ()


def deze_tijdeman_4term(p: int, q: int) -> list[FourTermSolution]:
    """Complete solutions of both four-term shapes with every power <= 2^15.

    Shape 'pxqy+-pz+-qw+-1': p^x q^y + s2 p^z + s3 q^w + s4 = 0.
    Shape 'px+-qy+-pz+-qw':  p^x + s2 q^y + s3 p^z + s4 q^w = 0.
    The individual powers p^x, q^y, p^z, q^w are each bounded; the product
    p^x q^y in the first shape may exceed the bound.  The pairs shape keeps
    z <= x when s3 = +1 and w <= y when s2 = s4, one of each swapped pair.
    """
    if max(p, q) >= 200:
        raise ValueError(f"max(p, q) must be < 200, got {max(p, q)}")

    # a p or q below 2 takes bound 0, so the first Pattern refuses it as not a prime
    xmax, ymax = (ilog(DT_POWER_BOUND, n) if n > 1 else 0 for n in (p, q))
    bounds = (("x", xmax), ("y", ymax), ("z", xmax), ("w", ymax))
    out: list[FourTermSolution] = []
    for s2, s3, s4 in itertools.product((1, -1), repeat=3):
        product_shape = ((1, "x", "y"), (s2, "z", 0), (s3, 0, "w"), (s4, 0, 0))
        pairs_shape = ((1, "x", 0), (s2, 0, "y"), (s3, "z", 0), (s4, 0, "w"))

        def canonical(a: dict[str, int], s2: int = s2, s3: int = s3, s4: int = s4) -> bool:
            return (s3 != 1 or a["z"] <= a["x"]) and (s2 != s4 or a["w"] <= a["y"])

        for shape, terms, predicate in (
            (SHAPE_PRODUCT, product_shape, None),
            (SHAPE_PAIRS, pairs_shape, canonical),
        ):
            out += [
                FourTermSolution(shape, (1, s2, s3, s4), assignment, values)
                for assignment, values in solve_pattern(Pattern(p, q, terms, bounds), predicate)
            ]
    out.sort()
    return out


def pillai_difference_table(
    prime_pairs: Sequence[tuple[int, int]], power_bound: int = DT_POWER_BOUND
) -> list[tuple[int, int, int, int, int, int]]:
    """All (p, q, x, y, z, w) with p^x - p^y = q^z - q^w > 0, powers <= bound.

    Normalized with x > y >= 0 and z > w >= 0 so each equal-difference pair
    is listed once; sorted by (p, q, x, y, z, w).  Solved as the pattern
    p^x - p^y - q^z + q^w = 0 with side condition x > y, z > w.  Assumes
    pairs of distinct primes and power_bound >= 1, which the registry
    checks at load.
    """
    out = []
    for p, q in prime_pairs:
        pe, qe = ilog(power_bound, p), ilog(power_bound, q)
        pattern = Pattern(
            p, q,
            ((1, "x", 0), (-1, "y", 0), (-1, 0, "z"), (1, 0, "w")),
            (("x", pe), ("y", pe), ("z", qe), ("w", qe)),
        )
        ordered = solve_pattern(pattern, lambda a: a["x"] > a["y"] and a["z"] > a["w"])
        out += [(p, q, *assignment) for assignment, _ in ordered]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Bajpai-Bennett: the five-term {2,3}-unit equation
# ---------------------------------------------------------------------------

BB5_ALPHA_MAX = 19
BB5_BETA_MAX = 12
BB5_VALUE_BOUND = 3**12


def bajpai_bennett_5term(
    alpha_max: int = BB5_ALPHA_MAX, beta_max: int = BB5_BETA_MAX
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Complete primitive solutions of the five-term signed {2,3} equation.

    Five distinct monomials 2^a 3^b <= 3^12, a <= alpha_max, b <= beta_max,
    with gcd 1, met once by the walk in canonical orientation (module
    docstring).  Distinct magnitudes exclude more than vanishing subsums:
    the primitive 8 - 4 - 2 - 1 - 1 = 0 has none, yet repeats 1 and is not
    listed.  Each solution is a pair (exponents, term values): the term
    values are its signed terms in decreasing magnitude, the first
    positive, and term i = +-2^a 3^b with (a, b) = ``exponents[2i:2i+2]``.
    Sorted by term values, descending.  The walk over the n admissible
    monomials counts 4 C(n-1, 2) + 4 C(n, 2) rows against the budget
    (67,600 at the default bounds, n = 131, whose box of exponents is about
    1.2e12).  Negative bounds raise ValueError.
    """
    if min(alpha_max, beta_max) < 0:
        raise ValueError(f"alpha_max and beta_max must be >= 0, got {alpha_max}, {beta_max}")
    walk = _canonical_walk(2, 3, 5, alpha_max, beta_max, BB5_VALUE_BOUND, DEFAULT_BUDGET)
    return sorted(walk, key=itemgetter(1), reverse=True)
