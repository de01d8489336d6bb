"""Complete bounded solvers for signed two-prime exponential equations.

* ``solve_pattern``     -- every boxed exponent assignment solving
                           sum c_i * p^{e_i} * q^{f_i} = 0, with optional
                           primitivity, vanishing-subsum, magnitude and
                           side-predicate filters;
* ``deze_tijdeman_4term`` -- p^x q^y +- p^z +- q^w +- 1 = 0 and
                           p^x +- q^y +- p^z +- q^w = 0, all powers <= 2^15;
* ``pillai_difference_table`` -- p^x - p^y = q^z - q^w > 0;
* ``bajpai_bennett_5term`` -- +-2^a1 3^b1 +- ... +- 2^a5 3^b5 = 0 under the
                           bounds max term <= 3^12, a_i <= 19, b_i <= 12;
* ``deweger_3term``     -- x + y = z in coprime 13-smooth positive integers,
                           by a join over prime-support buckets.

Block join.  ``solve_pattern`` puts terms that share a variable into one
block, so blocks have disjoint variables and the box is the product of the
blocks' boxes; terms with no variable fold into a constant offset.  Each
block is enumerated over its own variables, keeping rows whose terms lie
within ``value_bound``.  The blocks are split into two sides by greedy
balance of their boxes; the smaller side is stored in a dict keyed by its
sum (at most the square root of the box), and the larger side is streamed,
its largest block row by row, and probed for the complementary sum.  Every
point of the box is exactly one (streamed, stored) pair of row
combinations, and the probe meets it iff the terms sum to zero, so the
join is complete and yields each assignment once.  A pattern whose terms
all share variables is one block, streamed against the one-row empty side.
Sums are exact Python ints; the other filters run on matches only.  The
budget counts the whole box, which keeps the stored side near its square
root, and is checked before any enumeration.  Deze-Tijdeman is one pattern
per shape and sign vector, with the pairs shape's swap rule as a side
predicate; Pillai is p^x - p^y - q^z + q^w = 0 with x > y, z > w.

Canonical orientation.  An ``interchangeable`` pattern's k >= 4 terms are
p^e_i q^f_i under shared bounds and a ``value_bound``, so a solution is a
set of distinct monomials with signs, met once: in decreasing magnitude at
indices i0 > m_1 > ... > lo > j > l of the n sorted monomials within the
bound, i0's sign +.  Walking lo upward, the signed pair sums of j < lo are
stored, and for each choice of middle indices and walked signs a set
intersection over the values above finds i0.  The budget counts the rows,
4 C(n-1, 2) pair sums plus 2^(k-3) C(n, k-3) walked signed tuples.

Support buckets.  In a de Weger solution gcd(x, y) = 1 and z = x + y make
x, y and z pairwise coprime, so their prime-support masks are pairwise
disjoint.  The smooth numbers up to z_limit are grouped by exact mask into
sorted buckets.  Two summands share a bucket only if both masks are empty,
which is 1 + 1 = 2, emitted directly; every other solution lies in exactly
one triple of distinct, pairwise disjoint buckets: an unordered summand
pair {A, B} and a nonempty sum bucket C.  Each triple walks its smallest
bucket in Python and maps the middle one in C against the largest, a set:
sums w + v probe C when C is largest, differences probe a summand bucket
otherwise, and a bisection cut keeps only terms that can meet it.  The
probe meets a triple (x, y, z) iff x + y = z exactly, so the join is
complete and yields each solution once; all arithmetic is on Python ints.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb, gcd, prod
from typing import Callable, Iterator, Sequence

from .numutil import PrimeSet, factor_over, ilog, is_prime, smooth_enumerate

DEFAULT_BUDGET = 50_000_000
DEWEGER_PRIMES = PrimeSet((2, 3, 5, 7, 11, 13))


class SearchBudgetExceeded(RuntimeError):
    """Raised instead of silently truncating an oversized enumeration."""

    def __init__(self, estimate: int, budget: int, unit: str = "assignments"):
        super().__init__(f"search space of {estimate} {unit} exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


@dataclass(frozen=True)
class PatternTerm:
    """One signed monomial c * p^e * q^f; exponents are ints or variable names."""

    coefficient: int
    p_exp: int | str
    q_exp: int | str

    def __post_init__(self) -> None:
        if self.coefficient == 0:
            raise ValueError("coefficient must be nonzero")
        for e in (self.p_exp, self.q_exp):
            if isinstance(e, int) and e < 0:
                raise ValueError(f"fixed exponent must be >= 0, got {e}")


@dataclass(frozen=True)
class Pattern:
    """A signed two-prime equation with boxed exponent variables; ``interchangeable``: module docstring."""

    p: int
    q: int
    terms: tuple[PatternTerm, ...]
    var_bounds: tuple[tuple[str, int], ...]
    require_primitive: bool = False
    forbid_vanishing_subsums: bool = False
    value_bound: int | None = None
    interchangeable: bool = False

    def __post_init__(self) -> None:
        if not (is_prime(self.p) and is_prime(self.q) and self.p != self.q):
            raise ValueError(f"p, q must be distinct primes, got {self.p}, {self.q}")
        if len(self.terms) < 2:
            raise ValueError("pattern needs at least 2 terms")
        bound = dict(self.var_bounds)
        if len(bound) != len(self.var_bounds):
            raise ValueError(f"variable declared twice in {list(self.variables)}")
        for name, b in self.var_bounds:
            if b < 0:
                raise ValueError(f"bound of {name!r} must be >= 0, got {b}")
        exps = [e for t in self.terms for e in (t.p_exp, t.q_exp)]
        used = {e for e in exps if isinstance(e, str)}
        if used != bound.keys():
            raise ValueError(f"variable mismatch: terms use {sorted(used)}, bounds declare {sorted(bound)}")
        if self.value_bound is not None and self.value_bound < 0:
            raise ValueError(f"value_bound must be >= 0, got {self.value_bound}")
        if self.interchangeable and not (  # then every exponent is a variable of its own
            len(self.terms) >= 4 and self.value_bound is not None and all(t.coefficient == 1 for t in self.terms)
            and len(set(exps)) == len(exps) == len(bound)
            and len(set(map(bound.get, exps[::2]))) == len(set(map(bound.get, exps[1::2]))) == 1
        ):
            raise ValueError("interchangeable terms must be 4 or more PatternTerm(1, e_i, f_i) with variables of "
                             "their own, all e_i under one bound, all f_i under one bound, and a value_bound")

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.var_bounds)

    def term_values(self, assignment: Sequence[int]) -> tuple[int, ...]:
        """The signed term values c * p^e * q^f at exponents given in declared variable order."""
        if len(assignment) != len(self.var_bounds) or min(assignment, default=0) < 0:
            raise ValueError(f"assignment {list(assignment)} needs {len(self.var_bounds)} nonnegative exponents")
        env = dict(zip(self.variables, assignment))  # a fixed exponent is no key, so env.get returns it
        return tuple(t.coefficient * self.p ** env.get(t.p_exp, t.p_exp) * self.q ** env.get(t.q_exp, t.q_exp)
                     for t in self.terms)


@dataclass(frozen=True)
class PatternSolution:
    """One satisfying exponent assignment, in declared variable order."""

    variables: tuple[str, ...]
    values: tuple[int, ...]
    term_values: tuple[int, ...]


def has_vanishing_subsum(values: Sequence[int]) -> bool:
    """True iff a proper subset of two or more of the signed values sums to 0.

    Subsets are tested by exhaustive subset sums (at most 2^n of them;
    patterns are short).  A cancelling pair counts even when it is the
    whole equation, so a two-term identity like 2^a - 2^a = 0 is itself
    vanishing.
    """
    n = len(values)
    for mask in range(1, (1 << n) - 1 + (n == 2)):
        if mask & (mask - 1) == 0:
            continue  # singletons are nonzero
        s = 0
        for i in range(n):
            if mask >> i & 1:
                s += values[i]
        if s == 0:
            return True
    return False


def solve_pattern(
    pattern: Pattern,
    side_predicate: Callable[[dict[str, int]], bool] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[PatternSolution]:
    """Every assignment within bounds satisfying the equation and all filters.

    Output is in lexicographic order of the assignment vector (declared
    variable order) and complete over the box; see the module docstring for
    the block join and the canonical orientation, whose term values carry
    the signs.  A search larger than `budget` raises SearchBudgetExceeded
    before anything is enumerated: the block join counts the whole box, the
    walk over n admissible monomials counts 4 C(n-1, 2) + 2^(k-3) C(n, k-3)
    rows (67,600 for Bajpai-Bennett, n = 131, whose box is about 1.2e12).
    """
    names = pattern.variables
    join = _canonical_walk if pattern.interchangeable else _block_join
    return sorted(
        (PatternSolution(names, tuple(assignment), tuple(values)) for assignment, values in join(pattern, budget)
         if side_predicate is None or side_predicate(dict(zip(names, assignment)))),
        key=lambda s: s.values,
    )


def _keep(pattern: Pattern, values: Sequence[int]) -> bool:
    """The filters on term values alone; a join tests them before it forms the assignment."""
    return not (pattern.require_primitive and gcd(*values) != 1
                or pattern.forbid_vanishing_subsums and has_vanishing_subsum(values))


def _block_join(pattern: Pattern, budget: int) -> Iterator[tuple[list[int], list[int]]]:
    """(assignment, term values) of every zero sum in the box that passes `_keep`."""
    names = pattern.variables
    terms = pattern.terms
    limit = pattern.value_bound
    # term values in term order: fixed terms now, variable terms per match
    template: list[int | None] = [None] * len(terms)
    groups: list[tuple[set[str], list[int]]] = []
    for i, t in enumerate(terms):
        own = {e for e in (t.p_exp, t.q_exp) if isinstance(e, str)}
        if not own:
            template[i] = t.coefficient * pattern.p**t.p_exp * pattern.q**t.q_exp
            continue
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
    stored, streamed = sides if sizes[0] <= sizes[1] else sides[::-1]
    if limit is not None and any(abs(v) > limit for v in template if v is not None):
        return
    offset = sum(v for v in template if v is not None)

    def combos(side):
        """One row per block of a side; the side's first block is never held in memory."""
        if not side:
            yield ()
            return
        rest = [list(_block_rows(pattern, *b)) for b in side[1:]]
        for row in _block_rows(pattern, *side[0]):
            for combo in itertools.product(*rest):
                yield (row, *combo)

    table: dict[int, list[tuple]] = {}
    for combo in combos(stored):
        table.setdefault(sum(r[0] for r in combo), []).append(combo)
    position = {v: i for i, v in enumerate(names)}
    for combo in combos(streamed):
        for other in table.get(-offset - sum(r[0] for r in combo), ()):
            assignment = [0] * len(names)
            values = list(template)
            for (block_vars, term_ids), (_, assign, vals) in zip(streamed + stored, combo + other):
                for v, a in zip(block_vars, assign):
                    assignment[position[v]] = a
                for i, v in zip(term_ids, vals):
                    values[i] = v
            if _keep(pattern, values):
                yield assignment, values


def _block_rows(pattern: Pattern, block_vars: tuple[str, ...], term_ids: tuple[int, ...]) -> Iterator[tuple]:
    """(sum, assignment, term values) of each row of one block within value_bound.

    Exponents index an extended assignment: the block's variables, then
    the fixed exponents its terms use.
    """
    terms = [pattern.terms[i] for i in term_ids]
    fixed = tuple({e for t in terms for e in (t.p_exp, t.q_exp) if isinstance(e, int)})
    slot = {e: k for k, e in enumerate(block_vars + fixed)}
    spec = [(t.coefficient, slot[t.p_exp], slot[t.q_exp]) for t in terms]
    bound = dict(pattern.var_bounds)
    limit = pattern.value_bound
    for assign in itertools.product(*(range(bound[v] + 1) for v in block_vars)):
        e = assign + fixed
        vals = tuple(c * pattern.p ** e[i] * pattern.q ** e[j] for c, i, j in spec)
        if limit is None or all(-limit <= v <= limit for v in vals):
            yield sum(vals), assign, vals


def _canonical_walk(pattern: Pattern, budget: int) -> Iterator[tuple[list[int], tuple[int, ...]]]:
    """(assignment, signed term values) of each solution that passes `_keep`, once, in canonical orientation."""
    p, q, k, limit = pattern.p, pattern.q, len(pattern.terms), pattern.value_bound
    bound = dict(pattern.var_bounds)
    e_max, f_max = bound[pattern.terms[0].p_exp], bound[pattern.terms[0].q_exp]
    # the largest admissible p-exponent beside each admissible q^f
    e_tops = [min(e_max, ilog(limit // q**f, p)) for f in range(min(f_max, ilog(limit, q)) + 1)] if limit else []
    n = sum(e_tops) + len(e_tops)
    rows = 4 * comb(max(n - 1, 0), 2) + 2 ** (k - 3) * comb(n, k - 3)
    if rows > budget:
        raise SearchBudgetExceeded(rows, budget, "join rows")
    exponents = {p**e * q**f: (e, f) for f, top in enumerate(e_tops) for e in range(top + 1)}
    values = sorted(exponents)

    pairs: dict[int, list[tuple[int, int]]] = {}
    for lo, v in enumerate(values):
        for low in values[:max(lo - 1, 0)]:  # admit the pairs (j, l) with l < j = lo - 1
            for pair in itertools.product((values[lo - 1], -values[lo - 1]), (low, -low)):
                pairs.setdefault(sum(pair), []).append(pair)
        for mid in itertools.combinations(range(lo + 1, len(values)), k - 4):
            above = values[(mid[-1] if mid else lo) + 1:]  # the values i0 may take
            for walked in itertools.product(*((u, -u) for u in (v, *map(values.__getitem__, mid)))):
                rest = -sum(walked)
                for target in pairs.keys() & map(rest.__sub__, above):
                    for signed in ((rest - target, *walked[::-1], *pair) for pair in pairs[target]):
                        if _keep(pattern, signed):
                            env = {}
                            for t, s in zip(pattern.terms, signed):
                                env[t.p_exp], env[t.q_exp] = exponents[abs(s)]
                            yield [env[x] for x in pattern.variables], signed


# ---------------------------------------------------------------------------
# de Weger: x + y = z in coprime 13-smooth positive integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TripleSolution:
    """A solution of x + y = z with x <= y, gcd(x, y) = 1, xyz smooth."""

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        if self.x + self.y != self.z or self.x > self.y or gcd(self.x, self.y) != 1:
            raise ValueError(f"invalid triple ({self.x}, {self.y}, {self.z})")


def _support_masks(values: list[int], primes: tuple[int, ...]) -> list[int]:
    masks = []
    for v in values:
        m = 0
        for i, p in enumerate(primes):
            if v % p == 0:
                m |= 1 << i
        masks.append(m)
    return masks


def deweger_3term(
    primes: PrimeSet = DEWEGER_PRIMES, z_limit: int = 10**12
) -> list[TripleSolution]:
    """Complete list of x + y = z, x <= y, gcd(x,y) = 1, xyz smooth, z <= z_limit.

    The smooth numbers are grouped by support mask into sorted buckets, and
    each triple of pairwise disjoint buckets (summands A, B, sum C) walks
    its two smaller buckets and probes the largest by set intersection;
    see the module docstring for why this is complete.  Sorted by (z, x).
    z_limit above 2^63 - 1 is refused, which bounds the enumeration.
    """
    if z_limit < 2:
        raise ValueError(f"z_limit must be >= 2, got {z_limit}")
    if z_limit > 2**63 - 1:
        raise ValueError(f"z_limit must be <= 2**63 - 1, got {z_limit}")

    ps = tuple(primes)
    smooth = smooth_enumerate(ps, z_limit)
    buckets: dict[int, list[int]] = {}
    for v, m in zip(smooth, _support_masks(smooth, ps)):
        buckets.setdefault(m, []).append(v)
    sets = {m: set(b) for m, b in buckets.items()}

    found = [(1, 1, 2)] if 2 in ps else []
    for a, b in itertools.combinations(buckets, 2):
        if a & b:
            continue
        for c in buckets:
            if not c or c & (a | b):
                continue
            s, t, u = sorted((a, b, c), key=lambda m: len(buckets[m]))
            mid, probe = buckets[t], sets[u]
            for w in buckets[s]:
                if u == c:  # sums w + v probe the sum bucket
                    hits = probe.intersection(map(w.__add__, mid[:bisect_right(mid, buckets[u][-1] - w)]))
                    found += [(w, h - w, h) for h in hits]
                elif s == c:  # w is a sum: differences w - v probe a summand bucket
                    hits = probe.intersection(map(w.__sub__, mid[:bisect_left(mid, w)]))
                    found += [(h, w - h, w) for h in hits]
                else:  # mid holds the sums: differences v - w probe a summand bucket
                    hits = probe.intersection(map(w.__rsub__, mid[bisect_right(mid, w):]))
                    found += [(w, h, w + h) for h in hits]
    ordered = sorted((z, min(x, y), max(x, y)) for x, y, z in found)
    return [TripleSolution(x, y, z) for z, x, y in ordered]


def triple_ord_profile(sol: TripleSolution, primes: PrimeSet = DEWEGER_PRIMES) -> dict[int, int]:
    """ord_p(x*y*z) for each prime of the set."""
    return factor_over(sol.x * sol.y * sol.z, primes)[0]


# ---------------------------------------------------------------------------
# Deze-Tijdeman: four-term shapes with all powers <= 2^15
# ---------------------------------------------------------------------------

DT_POWER_BOUND = 2**15
SHAPE_PRODUCT = "pxqy+-pz+-qw+-1"
SHAPE_PAIRS = "px+-qy+-pz+-qw"


@dataclass(frozen=True)
class FourTermSolution:
    """A solution of one of the two four-term shapes, tagged by sign vector.

    ``terms`` are the four signed summands in shape order; they sum to 0.
    The leading term's sign is normalized positive, and within the pairs
    shape same-signed same-prime exponents are ordered descending, so each
    solution appears exactly once.
    """

    shape: str
    signs: tuple[int, ...]
    exponents: tuple[int, ...]
    terms: tuple[int, ...]


def deze_tijdeman_4term(p: int, q: int, power_bound: int = DT_POWER_BOUND) -> list[FourTermSolution]:
    """Complete solutions of both four-term shapes with every power <= 2^15.

    Shape 'pxqy+-pz+-qw+-1': p^x q^y + s2 p^z + s3 q^w + s4 = 0.
    Shape 'px+-qy+-pz+-qw':  p^x + s2 q^y + s3 p^z + s4 q^w = 0.
    The individual powers p^x, q^y, p^z, q^w are each bounded; the product
    p^x q^y in the first shape may exceed the bound.  The pairs shape keeps
    z <= x when s3 = +1 and w <= y when s2 = s4, one of each swapped pair.
    """
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise ValueError(f"p, q must be distinct primes, got {p}, {q}")
    if max(p, q) >= 200:
        raise ValueError(f"max(p, q) must be < 200, got {max(p, q)}")

    xmax, ymax = ilog(power_bound, p), ilog(power_bound, q)
    bounds = (("x", xmax), ("y", ymax), ("z", xmax), ("w", ymax))
    out: list[FourTermSolution] = []
    for s2, s3, s4 in itertools.product((1, -1), repeat=3):
        product_shape = (PatternTerm(1, "x", "y"), PatternTerm(s2, "z", 0),
                         PatternTerm(s3, 0, "w"), PatternTerm(s4, 0, 0))
        pairs_shape = (PatternTerm(1, "x", 0), PatternTerm(s2, 0, "y"),
                       PatternTerm(s3, "z", 0), PatternTerm(s4, 0, "w"))

        def canonical(a: dict[str, int], s2: int = s2, s3: int = s3, s4: int = s4) -> bool:
            return (s3 != 1 or a["z"] <= a["x"]) and (s2 != s4 or a["w"] <= a["y"])

        for shape, terms, predicate in (
            (SHAPE_PRODUCT, product_shape, None),
            (SHAPE_PAIRS, pairs_shape, canonical),
        ):
            out += [
                FourTermSolution(shape, (1, s2, s3, s4), s.values, s.term_values)
                for s in solve_pattern(Pattern(p, q, terms, bounds), predicate)
            ]
    out.sort(key=lambda s: (s.shape, s.signs, s.exponents))
    return out


def pillai_difference_table(
    prime_pairs: Sequence[tuple[int, int]], power_bound: int = DT_POWER_BOUND
) -> list[tuple[int, int, int, int, int, int]]:
    """All (p, q, x, y, z, w) with p^x - p^y = q^z - q^w > 0, powers <= bound.

    Normalized with x > y >= 0 and z > w >= 0 so each equal-difference pair
    is listed once; sorted by (p, q, x, y, z, w).  Solved as the pattern
    p^x - p^y - q^z + q^w = 0 with side condition x > y, z > w.
    """
    out = []
    for p, q in prime_pairs:
        if not (is_prime(p) and is_prime(q)) or p == q:
            raise ValueError(f"bad prime pair ({p}, {q})")
        pe, qe = ilog(power_bound, p), ilog(power_bound, q)
        pattern = Pattern(
            p, q,
            (PatternTerm(1, "x", 0), PatternTerm(-1, "y", 0),
             PatternTerm(-1, 0, "z"), PatternTerm(1, 0, "w")),
            (("x", pe), ("y", pe), ("z", qe), ("w", qe)),
        )
        ordered = solve_pattern(pattern, lambda a: a["x"] > a["y"] and a["z"] > a["w"])
        out += [(p, q, *s.values) for s in ordered]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Bajpai-Bennett: the five-term {2,3}-unit equation
# ---------------------------------------------------------------------------

BB5_ALPHA_MAX = 19
BB5_BETA_MAX = 12
BB5_VALUE_BOUND = 3**12


@dataclass(frozen=True)
class SignedMonomial:
    sign: int
    alpha: int
    beta: int
    value: int  # 2^alpha * 3^beta, always positive

    @property
    def signed_value(self) -> int:
        return self.sign * self.value


@dataclass(frozen=True)
class FiveTermSolution:
    """Five signed monomials 2^a 3^b summing to zero.

    Terms are ordered by decreasing magnitude; the largest-magnitude term
    has positive sign (global sign normalization).  Magnitudes are pairwise
    distinct and the five share no common factor.
    """

    terms: tuple[SignedMonomial, ...]

    def signed_values(self) -> tuple[int, ...]:
        return tuple(t.signed_value for t in self.terms)


def bajpai_bennett_5term(alpha_max: int = BB5_ALPHA_MAX, beta_max: int = BB5_BETA_MAX) -> list[FiveTermSolution]:
    """Complete primitive solutions of the five-term signed {2,3} equation.

    The interchangeable pattern of five distinct monomials 2^a 3^b <= 3^12,
    a <= alpha_max, b <= beta_max, with gcd 1 (module docstring).  Distinct
    magnitudes exclude more than vanishing subsums: the primitive
    8 - 4 - 2 - 1 - 1 = 0 has none, yet repeats 1 and is not listed.
    Sorted by signed values, descending.  Negative bounds raise ValueError.
    """
    names = [(f"a{i}", f"b{i}") for i in range(5)]
    pattern = Pattern(2, 3, tuple(PatternTerm(1, a, b) for a, b in names),
                      tuple(item for a, b in names for item in ((a, alpha_max), (b, beta_max))),
                      require_primitive=True, value_bound=BB5_VALUE_BOUND, interchangeable=True)
    solutions = [FiveTermSolution(tuple(SignedMonomial(1 if v > 0 else -1, *s.values[2 * i:2 * i + 2], abs(v))
                                        for i, v in enumerate(s.term_values))) for s in solve_pattern(pattern)]
    return sorted(solutions, key=FiveTermSolution.signed_values, reverse=True)
