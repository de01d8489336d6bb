import itertools
from bisect import bisect_left, bisect_right
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apsumset import sunit
from apsumset.numutil import PrimeSet, power_exponent, smooth_buckets
from apsumset.sunit import (
    DEFAULT_BUDGET,
    DEWEGER_PRIMES,
    SHAPE_PAIRS,
    SHAPE_PRODUCT,
    Pattern,
    SearchBudgetExceeded,
    TripleSolution,
    _canonical_walk,
    bajpai_bennett_5term,
    deweger_3term,
    deze_tijdeman_4term,
    pillai_difference_table,
    solve_pattern,
    triple_ord_profile,
)


def naive_solve(pattern, predicate=None):
    """Walk the whole box in lexicographic order and apply the side predicate."""
    out = []
    names = pattern.variables
    for values in itertools.product(*(range(b + 1) for _, b in pattern.var_bounds)):
        env = dict(zip(names, values))
        # a fixed exponent is not a key of env, so env.get returns it unchanged
        terms = tuple(c * pattern.p ** env.get(e, e) * pattern.q ** env.get(f, f) for c, e, f in pattern.terms)
        if sum(terms) != 0:
            continue
        if predicate is not None and not predicate(env):
            continue
        out.append((values, terms))
    return out


def even_sum(a):
    return sum(a.values()) % 2 == 0


# every term shares "a", so the pattern is one block: 2^b 3^a = 2^a 3^b
ONE_BLOCK = Pattern(
    2, 3,
    ((1, "a", 0), (-1, "a", 0), (1, "b", "a"), (-1, "a", "b")),
    (("b", 12), ("a", 12)),
)
# one block with a fixed exponent and coefficients other than +-1: 3 * 2^a - 2^a - 2 * 2^a = 0 at every a
ONE_BLOCK_COEFFICIENTS = Pattern(
    2, 3,
    ((3, "a", 0), (-1, "a", 0), (-2, "a", 0)),
    (("a", 20),),
)
# four one-variable blocks plus a fixed term: 2^a + 3^b = 2^c + 3^d + 1
FOUR_BLOCKS = Pattern(
    2, 3,
    ((1, "a", 0), (1, 0, "b"), (-1, "c", 0), (-1, 0, "d"), (-1, 0, 0)),
    (("a", 9), ("b", 6), ("c", 9), ("d", 6)),
)

# every term fixed: 2^1 + 3^0 - 3^1 = 0, the one point of an empty box
ALL_FIXED = Pattern(2, 3, ((1, 1, 0), (1, 0, 0), (-1, 0, 1)), ())


@st.composite
def pattern_cases(draw):
    """A random pattern with a box of at most 21^3 points, and a side predicate or None."""
    exponent = st.one_of(st.sampled_from("abc"), st.integers(0, 3))
    coefficient = st.sampled_from((-3, -2, -1, 1, 2, 3))
    term = st.tuples(coefficient, exponent, exponent)
    if draw(st.booleans()):
        terms = draw(st.lists(term, min_size=2, max_size=5))
    else:
        # each term and its negation with a and b swapped: solutions exist wherever a = b
        swap = {"a": "b", "b": "a"}
        half = draw(st.lists(term, min_size=1, max_size=2))
        terms = half + [(-c, swap.get(pe, pe), swap.get(qe, qe)) for c, pe, qe in half]
    used = sorted({e for _, pe, qe in terms for e in (pe, qe) if isinstance(e, str)})
    names = draw(st.permutations(used))
    pattern = Pattern(
        *draw(st.sampled_from(((2, 3), (3, 2), (2, 5)))),
        tuple(terms),
        tuple((v, draw(st.integers(0, 20))) for v in names),
    )
    return pattern, draw(st.sampled_from((None, even_sum)))


class TestSolvePattern:
    def test_catalan_like(self):
        # 3^a - 2^b - 1 = 0
        pat = Pattern(
            2, 3,
            ((1, 0, "a"), (-1, "b", 0), (-1, 0, 0)),
            (("a", 12), ("b", 19)),
        )
        assert [assignment for assignment, _ in solve_pattern(pat)] == [(1, 1), (2, 3)]

    def test_lexicographic_order(self):
        # 2^a = 2^b + 2^c only at b = c = a - 1
        pat = Pattern(
            2, 3,
            ((1, "a", 0), (-1, "b", 0), (-1, "c", 0)),
            (("a", 5), ("b", 5), ("c", 5)),
        )
        sols = [assignment for assignment, _ in solve_pattern(pat)]
        assert sols == [(1, 0, 0), (2, 1, 1), (3, 2, 2), (4, 3, 3), (5, 4, 4)]

    def test_budget_refusal(self):
        pat = Pattern(
            2, 3,
            ((1, "a", "b"), (-1, "c", "d")),
            (("a", 999), ("b", 999), ("c", 999), ("d", 999)),
        )
        with pytest.raises(SearchBudgetExceeded) as info:
            solve_pattern(pat, budget=10**6)
        assert info.value.estimate == 1000**4

    def test_fixed_term_counts_toward_row_words(self):
        # 2^x = 3^6400000: the fixed term alone is 200,001 words by the bits bound, so it is refused uncomputed
        pat = Pattern(2, 3, ((1, "x", 0), (-1, 0, 6_400_000)), (("x", 3),))
        with pytest.raises(SearchBudgetExceeded, match="row words") as info:
            solve_pattern(pat, budget=10**4)
        assert info.value.estimate == 4 + 200_001

    def test_each_fixed_term_counts_toward_row_words(self):
        # 2^x + 2^12800000 = 3^6400000: each fixed term is a one-row block of 200,001 words
        terms = ((1, "x", 0), (1, 12_800_000, 0), (-1, 0, 6_400_000))
        with pytest.raises(SearchBudgetExceeded, match="row words") as info:
            solve_pattern(Pattern(2, 3, terms, (("x", 3),)), budget=10**4)
        assert info.value.estimate == 4 + 200_001 + 200_001

    @pytest.mark.parametrize("pattern, expected", [
        (ALL_FIXED, [((), (2, 1, -3))]),
        # 2^2 - 3^1 != 0
        (Pattern(2, 3, ((1, 2, 0), (-1, 0, 1)), ()), []),
        # 2^a - 3^1 - 1 = 0 only at a = 2
        (Pattern(2, 3, ((1, "a", 0), (-1, 0, 1), (-1, 0, 0)), (("a", 10),)),
         [((2,), (4, -3, -1))]),
    ], ids=["all-fixed-zero", "all-fixed-nonzero", "two-fixed-one-block"])
    def test_term_with_no_variable_is_one_row_block(self, pattern, expected):
        assert solve_pattern(pattern) == naive_solve(pattern) == expected

    def test_completeness_against_naive(self):
        # shrunken box, generic 3-term pattern: full naive enumeration
        pat = Pattern(
            2, 3,
            ((1, "a", "b"), (-2, 0, "c"), (-1, "d", 0)),
            (("a", 6), ("b", 6), ("c", 6), ("d", 6)),
        )
        naive = []
        for a in range(7):
            for b in range(7):
                for c in range(7):
                    for d in range(7):
                        if 2**a * 3**b - 2 * 3**c - 2**d == 0:
                            naive.append((a, b, c, d))
        assert [assignment for assignment, _ in solve_pattern(pat)] == naive

    def test_term_values_sum_to_zero(self):
        pat = Pattern(
            2, 3,
            ((1, "x3", 0), (1, 0, "y3"), (-1, "x2", 0), (-1, 0, "y2"), (-2, 0, "y0")),
            (("x3", 10), ("y3", 6), ("x2", 10), ("y2", 6), ("y0", 6)),
        )
        sols = solve_pattern(pat)
        assert sols
        for _, values in sols:
            assert sum(values) == 0

    def test_pattern_term_values_match_solutions(self):
        pat = Pattern(
            2, 3,
            ((1, "x3", 0), (1, 0, "y3"), (-1, "x2", 0), (-1, 0, "y2"), (-2, 0, "y0")),
            (("x3", 10), ("y3", 6), ("x2", 10), ("y2", 6), ("y0", 6)),
        )
        for assignment, values in solve_pattern(pat):
            assert pat.term_values(assignment) == values
        assert pat.term_values((1, 2, 3, 0, 0)) == (2, 9, -8, -1, -2)

    @pytest.mark.parametrize("assignment", [(1,), (1, 2, 3), (-1, 2)], ids=["short", "long", "negative"])
    def test_pattern_term_values_refuses_bad_assignment(self, assignment):
        terms = ((1, 0, "a"), (-1, "b", 0), (-1, 0, 0))
        pat = Pattern(2, 3, terms, (("a", 5), ("b", 5)))
        with pytest.raises(ValueError):
            pat.term_values(assignment)

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Pattern(2, 3, ((1, "a", 0),), (("a", 3), ("zz", 3)))

    @pytest.mark.parametrize("bounds", [(("a", -1),), (("a", 3), ("a", 4))])
    def test_negative_or_repeated_bound_rejected(self, bounds):
        with pytest.raises(ValueError):
            Pattern(2, 3, ((1, "a", 0), (-1, 0, 1)), bounds)

    @settings(max_examples=300, deadline=None)
    @given(case=pattern_cases())
    @example(case=(ONE_BLOCK, None))
    @example(case=(ONE_BLOCK_COEFFICIENTS, None))
    @example(case=(FOUR_BLOCKS, even_sum))
    @example(case=(ALL_FIXED, None))
    @example(case=(ALL_FIXED, even_sum))
    def test_matches_naive_walk(self, case):
        pattern, predicate = case
        got = solve_pattern(pattern, predicate)
        assert got == naive_solve(pattern, predicate)

    @settings(max_examples=200, deadline=None)
    @given(case=pattern_cases())
    @example(case=(FOUR_BLOCKS, None))
    @example(case=(ALL_FIXED, None))
    def test_predicate_sees_every_variable_and_values_are_the_patterns(self, case):
        pattern, predicate = case
        seen = []

        def recording(env):
            seen.append(set(env))
            return predicate is None or predicate(env)

        got = solve_pattern(pattern, recording)
        assert all(keys == set(pattern.variables) for keys in seen)
        assert len(seen) == len(naive_solve(pattern))  # every zero sum of the box, once
        assert all(values == pattern.term_values(assignment) for assignment, values in got)


def walk(p, q, k, e_max, f_max, value_bound):
    """The walk's solutions over monomials p^e q^f <= value_bound, e <= e_max, f <= f_max, as a list."""
    return list(_canonical_walk(p, q, k, e_max, f_max, value_bound, DEFAULT_BUDGET))


def naive_canonical_walk(p, q, k, e_max, f_max, value_bound):
    """(exponents, signed values) of every primitive set of k distinct monomials with signs summing to 0.

    Each is normalised to decreasing magnitude with the largest term
    positive.  The k - 1 largest terms and their signs fix the smallest,
    which must be a smaller monomial.
    """
    monomials = {p**e * q**f: (e, f) for e in range(e_max + 1) for f in range(f_max + 1) if p**e * q**f <= value_bound}
    found = []
    for combo in itertools.combinations(sorted(monomials, reverse=True), k - 1):
        for signs in itertools.product((1, -1), repeat=k - 2):
            signed = (combo[0], *(s * v for s, v in zip(signs, combo[1:])))
            last = -sum(signed)
            if abs(last) < combo[-1] and abs(last) in monomials and gcd(last, *signed) == 1:
                signed += (last,)
                found.append((tuple(x for v in signed for x in monomials[abs(v)]), signed))
    return sorted(found)


@st.composite
def canonical_walk_cases(draw):
    """The walk's arguments but its budget: 4 to 6 terms, exponent bounds <= 2 and a value bound >= 1."""
    p, q = draw(st.sampled_from(((2, 3), (3, 2), (2, 5), (3, 5))))
    return p, q, draw(st.integers(4, 6)), draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 250))


def skipped_rows(p, q, k, e_max, f_max, value_bound):
    """The walk's rows (lo, middle indices) with a value above them, whose first such value is >= sum(walked) + 2v."""
    values = sorted(m for m in (p**e * q**f for e in range(e_max + 1) for f in range(f_max + 1)) if m <= value_bound)
    rows = []
    for lo, v in enumerate(values):
        for mid in itertools.combinations(range(lo + 1, len(values)), k - 4):
            start = (mid[-1] if mid else lo) + 1
            if start < len(values) and values[start] >= v + sum(values[i] for i in mid) + 2 * v:
                rows.append((lo, mid))
    return rows


class TestCanonicalWalk:
    @settings(max_examples=200, deadline=None)
    @given(case=canonical_walk_cases())
    @example(case=(2, 3, 4, 2, 2, 36))
    @example(case=(2, 3, 5, 2, 2, 36))
    def test_matches_naive_walk(self, case):
        assert sorted(walk(*case)) == naive_canonical_walk(*case)

    @pytest.mark.parametrize(
        "p, q, k, e_max, f_max, value_bound",
        [(3, 5, 4, 5, 3, 700), (3, 2, 5, 5, 3, 200), (2, 5, 5, 5, 3, 200), (3, 5, 6, 5, 3, 200), (2, 5, 6, 5, 3, 120)],
    )
    def test_row_skip_matches_naive(self, p, q, k, e_max, f_max, value_bound):
        # boxes where the walk skips whole rows whose values above lie out of reach of every sign pattern
        case = (p, q, k, e_max, f_max, value_bound)
        assert skipped_rows(*case)
        assert sorted(walk(*case)) == naive_canonical_walk(*case)

    @pytest.mark.parametrize(
        "k, e_max, f_max, value_bound, solutions, primitive",
        [(5, 8, 6, 3**12, 11_028, 872), (4, 8, 6, 3**12, 1_100, 49), (6, 5, 3, 3**5, 3_897, 1_790)],
    )
    def test_primitive_is_gcd_one_subset(self, k, e_max, f_max, value_bound, solutions, primitive):
        # the walk's gcd prefilter keeps exactly the primitive zero sums.  Every zero sum of distinct monomials is
        # 2^a 3^b, the gcd of its terms, times one primitive zero sum, so scaling the walk's solutions within the
        # bounds counts every zero sum, primitive or not
        sols = sorted(walk(2, 3, k, e_max, f_max, value_bound))
        assert sols == naive_canonical_walk(2, 3, k, e_max, f_max, value_bound)
        scaled = 0
        for exponents, values in sols:
            for a in range(e_max - max(exponents[::2]) + 1):
                scaled += sum(values[0] * 2**a * 3**b <= value_bound for b in range(f_max - max(exponents[1::2]) + 1))
        assert (scaled, len(sols)) == (solutions, primitive)

    def test_bb5_join_rows(self):
        # 131 monomials 2^a 3^b <= 3^12: 4 C(130, 2) pair sums plus 4 C(131, 2) walked rows
        with pytest.raises(SearchBudgetExceeded) as info:
            list(_canonical_walk(2, 3, 5, 19, 12, 3**12, 67_599))
        assert info.value.estimate == 67_600 == 4 * comb(130, 2) + 4 * comb(131, 2)
        assert len(list(_canonical_walk(2, 3, 5, 19, 12, 3**12, 67_600))) == 1213


def vanishing_oracle(values):
    """Some proper subset of two or more values sums to 0; for two values the pair itself counts."""
    n = len(values)
    sizes = range(2, n + 1) if n == 2 else range(2, n)
    return any(sum(c) == 0 for r in sizes for c in itertools.combinations(values, r))


class TestVanishingSubsum:
    # pins the oracle that the bb5 tests read "no vanishing subsum" from
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([4, -4], True),
            ([4, 4], False),
            ([3, -1], False),
            ([1, 2, -3], False),  # only the whole equation vanishes
            ([5, 1, -1], True),
            ([1, 2, -3, 5], True),
            ([1, 2, 4, -7], False),
            ([6, 5, -5, 1, 2], True),
            ([1, 2, 4, 8, -15], False),
            ([1, 2, 4, 8, 16, -31], False),
            ([1, 2, 4, 8, 16, -6], True),
        ],
    )
    def test_against_combinations(self, values, expected):
        assert vanishing_oracle(values) == expected


def brute_deweger(primes, z_limit):
    def smooth(n):
        for p in primes:
            while n % p == 0:
                n //= p
        return n == 1

    svals = [n for n in range(1, z_limit + 1) if smooth(n)]
    sset = set(svals)
    out = []
    for z in svals:
        for x in svals:
            if 2 * x > z:
                break
            if (z - x) in sset and gcd(x, z - x) == 1:
                out.append((x, z - x, z))
    return sorted(out, key=lambda t: (t[2], t[0]))


def walk_deweger(primes, z_limit):
    """The former bucket join: each triple walks its smallest bucket w by w, one intersection per w."""
    buckets = smooth_buckets(primes, z_limit)
    sets = {m: set(b) for m, b in buckets.items()}
    found = [(1, 1, 2)] if 2 in primes else []
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
    return sorted(((min(x, y), max(x, y), z) for x, y, z in found), key=lambda t: (t[2], t[0]))


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


class TestDeweger:
    def test_23_up_to_10(self):
        got = [(t.x, t.y, t.z) for t in deweger_3term(PrimeSet((2, 3)), 10)]
        # 1 + 1 = 2 qualifies: gcd(1, 1) = 1 and 1*1*2 is {2,3}-smooth
        assert got == [(1, 1, 2), (1, 2, 3), (1, 3, 4), (1, 8, 9)]

    def test_single_prime(self):
        got = [(t.x, t.y, t.z) for t in deweger_3term(PrimeSet((2,)), 10**6)]
        assert got == [(1, 1, 2)]

    def test_matches_brute_force(self):
        primes = PrimeSet((2, 3, 5, 7, 11, 13))
        got = [(t.x, t.y, t.z) for t in deweger_3term(primes, 10**5)]
        assert got == brute_deweger((2, 3, 5, 7, 11, 13), 10**5)

    def test_solution_shape(self):
        for t in deweger_3term(PrimeSet((2, 3, 5)), 10**6):
            assert t.x + t.y == t.z
            assert t.x <= t.y
            assert gcd(t.x, t.y) == 1
            # pairwise coprimality follows from z = x + y
            assert gcd(t.x, t.z) == 1 and gcd(t.y, t.z) == 1

    def test_sorted_by_z_then_x(self):
        sols = deweger_3term(PrimeSet((2, 3, 5, 7)), 10**6)
        keys = [(t.z, t.x) for t in sols]
        assert keys == sorted(keys)

    @settings(max_examples=60, deadline=None)
    @given(
        primes=st.sets(st.sampled_from(SMALL_PRIMES), min_size=1).map(lambda ps: PrimeSet(tuple(sorted(ps)))),
        z_limit=st.integers(2, 3000),
    )
    @example(primes=PrimeSet((2, 3)), z_limit=10)  # 1 + 1 = 2, the one same-bucket solution
    @example(primes=PrimeSet((2,)), z_limit=3000)  # only 1 + 1 = 2
    @example(primes=PrimeSet((7,)), z_limit=3000)  # no solution: 2 is not smooth
    def test_matches_brute_force_random_sets(self, primes, z_limit):
        got = [(t.x, t.y, t.z) for t in deweger_3term(primes, z_limit)]
        assert got == brute_deweger(tuple(primes), z_limit)

    @pytest.mark.parametrize("z_limit, count", [(10**8, 545), (10**10, 545)])
    def test_matches_former_walk(self, z_limit, count):
        got = [(t.x, t.y, t.z) for t in deweger_3term(DEWEGER_PRIMES, z_limit)]
        assert got == walk_deweger(tuple(DEWEGER_PRIMES), z_limit)
        assert len(got) == count

    @settings(max_examples=40, deadline=None)
    @given(
        primes=st.sets(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=7).map(lambda ps: PrimeSet(tuple(sorted(ps)))),
        z_limit=st.integers(2, 10**6),
    )
    @example(primes=PrimeSet(SMALL_PRIMES[:7]), z_limit=10**6)
    @example(primes=PrimeSet(SMALL_PRIMES[:8]), z_limit=10**5)  # 256 buckets, most of them tiny
    def test_matches_former_walk_random_sets(self, primes, z_limit):
        got = [(t.x, t.y, t.z) for t in deweger_3term(primes, z_limit)]
        assert got == walk_deweger(tuple(primes), z_limit)

    def test_triple_invariant(self):
        with pytest.raises(ValueError, match=r"invalid triple \(2, 1, 3\)"):
            TripleSolution(2, 1, 3)  # x > y

    def test_refuses_beyond_int64(self):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            deweger_3term(PrimeSet((2, 3)), 2**63)

    def test_ord_profile(self):
        sols = deweger_3term(PrimeSet((2, 3)), 10)
        prof = triple_ord_profile(sols[1], PrimeSet((2, 3)))
        assert prof == {2: 1, 3: 1}  # 1 + 2 = 3


def brute_dt_pairs_shape(p, q, bound):
    """Naive enumeration of p^x + s2 q^y + s3 p^z + s4 q^w = 0 (canonical)."""

    def maxexp(base):
        e = 0
        while base ** (e + 1) <= bound:
            e += 1
        return e

    sols = set()
    for x in range(maxexp(p) + 1):
        for y in range(maxexp(q) + 1):
            for z in range(maxexp(p) + 1):
                for w in range(maxexp(q) + 1):
                    for s2, s3, s4 in itertools.product((1, -1), repeat=3):
                        if s3 == 1 and z > x:
                            continue
                        if s2 == s4 and w > y:
                            continue
                        if p**x + s2 * q**y + s3 * p**z + s4 * q**w == 0:
                            sols.add(((1, s2, s3, s4), (x, y, z, w)))
    return sols


def brute_dt_product_shape(p, q, bound):
    """Naive enumeration of p^x q^y + s2 p^z + s3 q^w + s4 = 0."""
    xs = [e for e in range(bound.bit_length()) if p**e <= bound]
    ys = [e for e in range(bound.bit_length()) if q**e <= bound]
    sols = set()
    for x, y, z, w in itertools.product(xs, ys, xs, ys):
        for s2, s3, s4 in itertools.product((1, -1), repeat=3):
            if p**x * q**y + s2 * p**z + s3 * q**w + s4 == 0:
                sols.add(((1, s2, s3, s4), (x, y, z, w)))
    return sols


class TestDezeTijdeman:
    def test_pillai_style_solution_23(self):
        sols = deze_tijdeman_4term(2, 3)
        # 4 - 2 = 3 - 1: 2^2 - 3^1 - 2^1 + 3^0 = 0
        assert any(
            s.shape == SHAPE_PAIRS and s.exponents == (2, 1, 1, 0) and s.signs == (1, -1, -1, 1)
            for s in sols
        )

    def test_pillai_style_solution_27(self):
        sols = deze_tijdeman_4term(2, 7)
        assert any(
            s.shape == SHAPE_PAIRS and s.exponents == (3, 1, 1, 0) and s.signs == (1, -1, -1, 1)
            for s in sols
        )

    def test_all_terms_sum_to_zero(self):
        for s in deze_tijdeman_4term(3, 5):
            assert sum(s.terms) == 0

    def test_no_all_plus_product_shape(self):
        # p^x q^y + p^z + q^w + 1 = 0 has a positive left side
        for s in deze_tijdeman_4term(2, 3):
            if s.shape == SHAPE_PRODUCT:
                assert s.signs != (1, 1, 1, 1)

    def test_power_bound_respected(self):
        for s in deze_tijdeman_4term(2, 3):
            x, y, z, w = s.exponents
            assert 2**x <= 2**15 and 2**z <= 2**15
            assert 3**y <= 2**15 and 3**w <= 2**15

    def test_rejects_large_prime(self):
        with pytest.raises(ValueError):
            deze_tijdeman_4term(2, 211)

    def test_rejects_equal_primes(self):
        with pytest.raises(ValueError):
            deze_tijdeman_4term(5, 5)

    def test_pairs_shape_matches_naive_at_small_bound(self, monkeypatch):
        monkeypatch.setattr(sunit, "DT_POWER_BOUND", 64)
        got = {(s.signs, s.exponents) for s in deze_tijdeman_4term(2, 3) if s.shape == SHAPE_PAIRS}
        assert got == brute_dt_pairs_shape(2, 3, 64)

    @pytest.mark.parametrize("p, q, bound", [(2, 3, 64), (3, 2, 200), (2, 5, 1000), (3, 7, 2500)])
    def test_product_shape_matches_naive(self, monkeypatch, p, q, bound):
        monkeypatch.setattr(sunit, "DT_POWER_BOUND", bound)
        got = {(s.signs, s.exponents) for s in deze_tijdeman_4term(p, q) if s.shape == SHAPE_PRODUCT}
        assert got == brute_dt_product_shape(p, q, bound)
        assert got  # e.g. 2 * 3 - 2^2 - 3 + 1 = 0 for (2, 3)

    def test_relabeling_invariance(self):
        # swapping (p, q) relabels pairs-shape solutions; the signed term
        # multisets must agree up to the global-sign normalization, which
        # follows the leading prime and so flips under the swap
        def pairs_key(sols):
            keys = set()
            for s in sols:
                if s.shape != SHAPE_PAIRS:
                    continue
                terms = list(s.terms)
                if max(terms, key=abs) < 0:
                    terms = [-t for t in terms]
                keys.add(tuple(sorted(terms)))
            return keys

        assert pairs_key(deze_tijdeman_4term(2, 5)) == pairs_key(deze_tijdeman_4term(5, 2))


class TestPillaiTable:
    def test_known_rows(self):
        table = pillai_difference_table([(2, 3), (2, 7)])
        assert (2, 3, 2, 1, 1, 0) in table
        assert (2, 7, 3, 1, 1, 0) in table

    @pytest.mark.parametrize("pairs, bound", [([(2, 3), (2, 5), (3, 7)], 2**15), ([(5, 3), (2, 11)], 10**4)])
    def test_matches_naive(self, pairs, bound):
        naive = []
        for p, q in pairs:
            pe = [e for e in range(bound.bit_length()) if p**e <= bound]
            qe = [e for e in range(bound.bit_length()) if q**e <= bound]
            for x, y, z, w in itertools.product(pe, pe, qe, qe):
                if p**x - p**y == q**z - q**w > 0:
                    naive.append((p, q, x, y, z, w))
        assert pillai_difference_table(pairs, bound) == sorted(naive)

    def test_rows_verify(self):
        for p, q, x, y, z, w in pillai_difference_table([(2, 5), (3, 7)]):
            assert p**x - p**y == q**z - q**w > 0


def naive_bb5(alpha_max, beta_max):
    vals = sorted(
        2**a * 3**b for a in range(alpha_max + 1) for b in range(beta_max + 1)
    )
    sols = set()
    for combo in itertools.combinations(vals, 5):
        for signs in itertools.product((1, -1), repeat=5):
            if sum(s * v for s, v in zip(signs, combo)) == 0:
                if gcd(*combo) != 1:
                    continue
                items = sorted(zip(combo, signs), reverse=True)
                if items[0][1] < 0:
                    items = [(v, -s) for v, s in items]
                sols.add(tuple(items))
    return sols


class TestBajpaiBennett:
    def test_known_solution_present(self):
        sols = bajpai_bennett_5term()
        assert any(values == (16, -9, -4, -2, -1) for _, values in sols)

    def test_stated_maxima(self):
        sols = bajpai_bennett_5term()
        assert max(abs(v) for _, values in sols for v in values) <= 3**12
        assert max(a for assignment, _ in sols for a in assignment[::2]) <= 19
        assert max(b for assignment, _ in sols for b in assignment[1::2]) <= 12

    def test_exponents_pair_with_values(self):
        # the CLI reads term i's (alpha, beta) from assignment[2i:2i+2] and its sign and value from values[i]
        for assignment, values in bajpai_bennett_5term():
            magnitudes = [abs(v) for v in values]
            assert magnitudes == [2 ** assignment[2 * i] * 3 ** assignment[2 * i + 1] for i in range(5)]
            assert all(x > y for x, y in zip(magnitudes, magnitudes[1:]))
            assert values[0] > 0

    def test_no_equal_magnitudes(self):
        for _, values in bajpai_bennett_5term():
            assert len({abs(v) for v in values}) == 5

    def test_primitive_and_zero_sum(self):
        for _, values in bajpai_bennett_5term():
            assert sum(values) == 0
            assert gcd(*values) == 1
            assert not vanishing_oracle(values)

    def test_matches_naive_small(self):
        got = {tuple((abs(v), 1 if v > 0 else -1) for v in values) for _, values in bajpai_bennett_5term(4, 3)}
        assert got == naive_bb5(4, 3)
        sols = walk(2, 3, 5, 4, 3, 10**9)
        assert {tuple((abs(v), 1 if v > 0 else -1) for v in values) for _, values in sols} == got

    def test_matches_naive_below_largest_monomial(self):
        # 2^4 * 3^3 = 432 is the largest monomial; the bound drops every term above 100
        sols = walk(2, 3, 5, 4, 3, 100)
        got = {tuple((abs(v), 1 if v > 0 else -1) for v in values) for _, values in sols}
        assert got == {sol for sol in naive_bb5(4, 3) if sol[0][0] <= 100}
        assert got

    def test_deterministic_order(self):
        a = [values for _, values in bajpai_bennett_5term(6, 4)]
        b = [values for _, values in bajpai_bennett_5term(6, 4)]
        assert a == b
        assert a == sorted(a, reverse=True)

    def test_repeated_monomial_omitted(self):
        # a primitive zero sum with no vanishing subsum that repeats 1, so it is no solution
        values = (8, -4, -2, -1, -1)
        assert sum(values) == 0 and gcd(*values) == 1 and not vanishing_oracle(values)
        assert values not in {signed for _, signed in bajpai_bennett_5term()}

    @pytest.mark.parametrize("bounds", [(-1, 6), (8, -1)])
    def test_negative_bound_rejected(self, bounds):
        with pytest.raises(ValueError, match=">= 0"):
            bajpai_bennett_5term(*bounds)
