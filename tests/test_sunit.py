import itertools
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apsumset.numutil import PrimeSet, power_exponent
from apsumset.sunit import (
    SHAPE_PAIRS,
    SHAPE_PRODUCT,
    Pattern,
    PatternTerm,
    SearchBudgetExceeded,
    bajpai_bennett_5term,
    deweger_3term,
    deze_tijdeman_4term,
    has_vanishing_subsum,
    pillai_difference_table,
    solve_pattern,
    triple_ord_profile,
)


def naive_solve(pattern, predicate=None):
    """Walk the whole box in lexicographic order and apply every filter."""
    out = []
    names = pattern.variables
    for values in itertools.product(*(range(b + 1) for _, b in pattern.var_bounds)):
        env = dict(zip(names, values))
        # a fixed exponent is not a key of env, so env.get returns it unchanged
        terms = tuple(
            t.coefficient * pattern.p ** env.get(t.p_exp, t.p_exp) * pattern.q ** env.get(t.q_exp, t.q_exp)
            for t in pattern.terms
        )
        if sum(terms) != 0:
            continue
        if pattern.value_bound is not None and max(map(abs, terms)) > pattern.value_bound:
            continue
        if pattern.require_primitive and gcd(*terms) != 1:
            continue
        if pattern.forbid_vanishing_subsums and has_vanishing_subsum(terms):
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
    (PatternTerm(1, "a", 0), PatternTerm(-1, "a", 0), PatternTerm(1, "b", "a"), PatternTerm(-1, "a", "b")),
    (("b", 12), ("a", 12)),
)
# one block with a fixed exponent: 3 * 2^a - 2^a - 2 * 2^a = 0, primitive only at a = 0
ONE_BLOCK_PRIMITIVE = Pattern(
    2, 3,
    (PatternTerm(3, "a", 0), PatternTerm(-1, "a", 0), PatternTerm(-2, "a", 0)),
    (("a", 20),),
    require_primitive=True,
)
# four one-variable blocks plus a fixed term: 2^a + 3^b = 2^c + 3^d + 1
FOUR_BLOCKS = Pattern(
    2, 3,
    (PatternTerm(1, "a", 0), PatternTerm(1, 0, "b"), PatternTerm(-1, "c", 0), PatternTerm(-1, 0, "d"),
     PatternTerm(-1, 0, 0)),
    (("a", 9), ("b", 6), ("c", 9), ("d", 6)),
    forbid_vanishing_subsums=True,
    value_bound=300,
)


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
        tuple(PatternTerm(*t) for t in terms),
        tuple((v, draw(st.integers(0, 20))) for v in names),
        require_primitive=draw(st.booleans()),
        forbid_vanishing_subsums=draw(st.booleans()),
        value_bound=draw(st.none() | st.integers(1, 3**5)),
    )
    return pattern, draw(st.sampled_from((None, even_sum)))


class TestSolvePattern:
    def test_catalan_like(self):
        # 3^a - 2^b - 1 = 0
        pat = Pattern(
            2, 3,
            (PatternTerm(1, 0, "a"), PatternTerm(-1, "b", 0), PatternTerm(-1, 0, 0)),
            (("a", 12), ("b", 19)),
        )
        assert [s.values for s in solve_pattern(pat)] == [(1, 1), (2, 3)]

    def test_vanishing_subsum_filter_kills_trivial(self):
        # 2^a - 2^a = 0: every solution is a vanishing subsum
        pat = Pattern(
            2, 3,
            (PatternTerm(1, "a", 0), PatternTerm(-1, "a", 0)),
            (("a", 10),),
            forbid_vanishing_subsums=True,
        )
        assert solve_pattern(pat) == []

    def test_lexicographic_order(self):
        # 2^a = 2^b + 2^c only at b = c = a - 1
        pat = Pattern(
            2, 3,
            (PatternTerm(1, "a", 0), PatternTerm(-1, "b", 0), PatternTerm(-1, "c", 0)),
            (("a", 5), ("b", 5), ("c", 5)),
        )
        sols = [s.values for s in solve_pattern(pat)]
        assert sols == [(1, 0, 0), (2, 1, 1), (3, 2, 2), (4, 3, 3), (5, 4, 4)]

    def test_budget_refusal(self):
        pat = Pattern(
            2, 3,
            (PatternTerm(1, "a", "b"), PatternTerm(-1, "c", "d")),
            (("a", 999), ("b", 999), ("c", 999), ("d", 999)),
        )
        with pytest.raises(SearchBudgetExceeded) as info:
            solve_pattern(pat, budget=10**6)
        assert info.value.estimate == 1000**4

    def test_negative_value_bound_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Pattern(2, 3, (PatternTerm(1, "a", 0), PatternTerm(-1, 0, 1)), (("a", 3),), value_bound=-1)

    def test_primitive_filter(self):
        # 2^a - 2^b = 0 has gcd > 1 except a = b = 0
        pat = Pattern(
            2, 3,
            (PatternTerm(1, "a", 0), PatternTerm(-1, "b", 0)),
            (("a", 5), ("b", 5)),
            require_primitive=True,
        )
        assert [s.values for s in solve_pattern(pat)] == [(0, 0)]

    def test_value_bound(self):
        pat = Pattern(
            2, 3,
            (PatternTerm(1, "a", 0), PatternTerm(-1, "b", 0)),
            (("a", 10), ("b", 10)),
            value_bound=16,
        )
        sols = [s.values for s in solve_pattern(pat)]
        assert sols == [(a, a) for a in range(5)]

    def test_completeness_against_naive(self):
        # shrunken box, generic 3-term pattern: full naive enumeration
        pat = Pattern(
            2, 3,
            (PatternTerm(1, "a", "b"), PatternTerm(-2, 0, "c"), PatternTerm(-1, "d", 0)),
            (("a", 6), ("b", 6), ("c", 6), ("d", 6)),
        )
        naive = []
        for a in range(7):
            for b in range(7):
                for c in range(7):
                    for d in range(7):
                        if 2**a * 3**b - 2 * 3**c - 2**d == 0:
                            naive.append((a, b, c, d))
        assert [s.values for s in solve_pattern(pat)] == naive

    def test_term_values_sum_to_zero(self):
        pat = Pattern(
            2, 3,
            (PatternTerm(1, "x3", 0), PatternTerm(1, 0, "y3"), PatternTerm(-1, "x2", 0),
             PatternTerm(-1, 0, "y2"), PatternTerm(-2, 0, "y0")),
            (("x3", 10), ("y3", 6), ("x2", 10), ("y2", 6), ("y0", 6)),
        )
        sols = solve_pattern(pat)
        assert sols
        for s in sols:
            assert sum(s.term_values) == 0

    def test_pattern_term_values_match_solutions(self):
        pat = Pattern(
            2, 3,
            (PatternTerm(1, "x3", 0), PatternTerm(1, 0, "y3"), PatternTerm(-1, "x2", 0),
             PatternTerm(-1, 0, "y2"), PatternTerm(-2, 0, "y0")),
            (("x3", 10), ("y3", 6), ("x2", 10), ("y2", 6), ("y0", 6)),
        )
        for s in solve_pattern(pat):
            assert pat.term_values(s.values) == s.term_values
        assert pat.term_values((1, 2, 3, 0, 0)) == (2, 9, -8, -1, -2)

    @pytest.mark.parametrize("assignment", [(1,), (1, 2, 3), (-1, 2)], ids=["short", "long", "negative"])
    def test_pattern_term_values_refuses_bad_assignment(self, assignment):
        terms = (PatternTerm(1, 0, "a"), PatternTerm(-1, "b", 0), PatternTerm(-1, 0, 0))
        pat = Pattern(2, 3, terms, (("a", 5), ("b", 5)))
        with pytest.raises(ValueError):
            pat.term_values(assignment)

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Pattern(2, 3, (PatternTerm(1, "a", 0),), (("a", 3), ("zz", 3)))

    @pytest.mark.parametrize("bounds", [(("a", -1),), (("a", 3), ("a", 4))])
    def test_negative_or_repeated_bound_rejected(self, bounds):
        with pytest.raises(ValueError):
            Pattern(2, 3, (PatternTerm(1, "a", 0), PatternTerm(-1, 0, 1)), bounds)

    @settings(max_examples=300, deadline=None)
    @given(case=pattern_cases())
    @example(case=(ONE_BLOCK, None))
    @example(case=(ONE_BLOCK_PRIMITIVE, None))
    @example(case=(FOUR_BLOCKS, even_sum))
    def test_matches_naive_walk(self, case):
        pattern, predicate = case
        got = [(s.values, s.term_values) for s in solve_pattern(pattern, predicate)]
        assert got == naive_solve(pattern, predicate)


def interchangeable(p, q, k, e_max, f_max, value_bound, **filters):
    """The interchangeable pattern of k monomials p^e_i q^f_i <= value_bound, e_i <= e_max, f_i <= f_max."""
    names = [(f"e{i}", f"f{i}") for i in range(k)]
    return Pattern(
        p, q, tuple(PatternTerm(1, e, f) for e, f in names),
        tuple(item for e, f in names for item in ((e, e_max), (f, f_max))),
        value_bound=value_bound, interchangeable=True, **filters,
    )


def naive_interchangeable(pattern, predicate=None):
    """(assignment, signed values) of every set of k distinct monomials with signs summing to 0.

    Each is normalised to decreasing magnitude with the largest term positive.
    """
    bound = dict(pattern.var_bounds)
    e_max, f_max = bound[pattern.terms[0].p_exp], bound[pattern.terms[0].q_exp]
    limit = pattern.value_bound
    monomials = {
        pattern.p**e * pattern.q**f: (e, f)
        for e in range(e_max + 1)
        for f in range(f_max + 1)
        if pattern.p**e * pattern.q**f <= limit
    }
    found = set()
    for combo in itertools.combinations(sorted(monomials, reverse=True), len(pattern.terms)):
        for signs in itertools.product((1, -1), repeat=len(combo)):
            signed = tuple(s * v * signs[0] for s, v in zip(signs, combo))
            if sum(signed) != 0:
                continue
            if pattern.require_primitive and gcd(*signed) != 1:
                continue
            if pattern.forbid_vanishing_subsums and has_vanishing_subsum(signed):
                continue
            env = {}
            for t, v in zip(pattern.terms, signed):
                env[t.p_exp], env[t.q_exp] = monomials[abs(v)]
            if predicate is not None and not predicate(env):
                continue
            found.add((tuple(env[name] for name in pattern.variables), signed))
    return sorted(found)


@st.composite
def interchangeable_cases(draw):
    """A random interchangeable pattern of 4 or 5 terms, bounds <= 2, declared in any order, and a predicate."""
    k = draw(st.integers(4, 5))
    pattern = interchangeable(
        *draw(st.sampled_from(((2, 3), (3, 2), (2, 5), (3, 5)))), k, draw(st.integers(0, 2)), draw(st.integers(0, 2)),
        draw(st.integers(0, 250)),
        require_primitive=draw(st.booleans()),
        forbid_vanishing_subsums=draw(st.booleans()),
    )
    pattern = Pattern(pattern.p, pattern.q, pattern.terms, tuple(draw(st.permutations(pattern.var_bounds))),
                      pattern.require_primitive, pattern.forbid_vanishing_subsums, pattern.value_bound, True)
    return pattern, draw(st.sampled_from((None, even_sum)))


class TestInterchangeable:
    @settings(max_examples=200, deadline=None)
    @given(case=interchangeable_cases())
    @example(case=(interchangeable(2, 3, 4, 2, 2, 36), None))
    @example(case=(interchangeable(2, 3, 4, 2, 2, 36, require_primitive=True), None))
    @example(case=(interchangeable(2, 3, 5, 2, 2, 36, forbid_vanishing_subsums=True), even_sum))
    def test_matches_naive_walk(self, case):
        pattern, predicate = case
        sols = solve_pattern(pattern, predicate)
        assert [s.values for s in sols] == sorted(s.values for s in sols)
        assert sorted((s.values, s.term_values) for s in sols) == naive_interchangeable(pattern, predicate)

    def test_no_value_bound_refused_at_once(self):
        # without a value bound these exponent bounds would admit 10^12 monomials
        with pytest.raises(ValueError, match="value_bound"):
            interchangeable(2, 3, 5, 10**6, 10**6, None)

    def test_bb5_join_rows(self):
        # 131 monomials 2^a 3^b <= 3^12: 4 C(130, 2) pair sums plus 4 C(131, 2) walked rows
        pattern = interchangeable(2, 3, 5, 19, 12, 3**12, require_primitive=True)
        with pytest.raises(SearchBudgetExceeded) as info:
            solve_pattern(pattern, budget=67_599)
        assert info.value.estimate == 67_600 == 4 * comb(130, 2) + 4 * comb(131, 2)
        assert len(solve_pattern(pattern, budget=67_600)) == 1213

    @pytest.mark.parametrize(
        "edit",
        [
            lambda terms, bounds: (terms[:3], bounds[:6]),
            lambda terms, bounds: ((*terms[:3], PatternTerm(-1, "e3", "f3")), bounds),
            lambda terms, bounds: ((*terms[:3], PatternTerm(1, "e3", 0)), bounds[:7]),
            lambda terms, bounds: ((*terms[:3], PatternTerm(1, "e0", "f3")), (*bounds[:6], bounds[7])),
            lambda terms, bounds: (terms, (*bounds[:6], ("e3", 3), bounds[7])),
            lambda terms, bounds: (terms, (*bounds[:7], ("f3", 1))),
        ],
        ids=["three-terms", "coefficient", "fixed-exponent", "shared-variable", "unequal-p-bound", "unequal-q-bound"],
    )
    def test_malformed_mode_rejected(self, edit):
        valid = interchangeable(2, 3, 4, 2, 2, 100)
        terms, bounds = edit(valid.terms, valid.var_bounds)
        with pytest.raises(ValueError, match="interchangeable"):
            Pattern(2, 3, terms, bounds, value_bound=100, interchangeable=True)


def vanishing_oracle(values):
    """Some proper subset of two or more values sums to 0; for two values the pair itself counts."""
    n = len(values)
    sizes = range(2, n + 1) if n == 2 else range(2, n)
    return any(sum(c) == 0 for r in sizes for c in itertools.combinations(values, r))


class TestVanishingSubsum:
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
        assert has_vanishing_subsum(values) == vanishing_oracle(values) == expected

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(-20, 20).filter(bool), min_size=2, max_size=6))
    def test_matches_oracle(self, values):
        assert has_vanishing_subsum(values) == vanishing_oracle(values)


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


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


class TestDeweger:
    def test_23_up_to_10(self):
        got = [(t.x, t.y, t.z) for t in deweger_3term(PrimeSet.of(2, 3), 10)]
        # 1 + 1 = 2 qualifies: gcd(1, 1) = 1 and 1*1*2 is {2,3}-smooth
        assert got == [(1, 1, 2), (1, 2, 3), (1, 3, 4), (1, 8, 9)]

    def test_single_prime(self):
        got = [(t.x, t.y, t.z) for t in deweger_3term(PrimeSet.of(2), 10**6)]
        assert got == [(1, 1, 2)]

    def test_matches_brute_force(self):
        primes = PrimeSet.of(2, 3, 5, 7, 11, 13)
        got = [(t.x, t.y, t.z) for t in deweger_3term(primes, 10**5)]
        assert got == brute_deweger((2, 3, 5, 7, 11, 13), 10**5)

    def test_solution_shape(self):
        for t in deweger_3term(PrimeSet.of(2, 3, 5), 10**6):
            assert t.x + t.y == t.z
            assert t.x <= t.y
            assert gcd(t.x, t.y) == 1
            # pairwise coprimality follows from z = x + y
            assert gcd(t.x, t.z) == 1 and gcd(t.y, t.z) == 1

    def test_sorted_by_z_then_x(self):
        sols = deweger_3term(PrimeSet.of(2, 3, 5, 7), 10**6)
        keys = [(t.z, t.x) for t in sols]
        assert keys == sorted(keys)

    @settings(max_examples=60, deadline=None)
    @given(
        primes=st.sets(st.sampled_from(SMALL_PRIMES), min_size=1).map(lambda ps: PrimeSet.of(*ps)),
        z_limit=st.integers(2, 3000),
    )
    @example(primes=PrimeSet.of(2, 3), z_limit=10)  # 1 + 1 = 2, the one same-bucket solution
    @example(primes=PrimeSet.of(2), z_limit=3000)  # only 1 + 1 = 2
    @example(primes=PrimeSet.of(7), z_limit=3000)  # no solution: 2 is not smooth
    def test_matches_brute_force_random_sets(self, primes, z_limit):
        got = [(t.x, t.y, t.z) for t in deweger_3term(primes, z_limit)]
        assert got == brute_deweger(tuple(primes), z_limit)

    def test_refuses_beyond_int64(self):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            deweger_3term(PrimeSet.of(2, 3), 2**63)

    def test_ord_profile(self):
        sols = deweger_3term(PrimeSet.of(2, 3), 10)
        prof = triple_ord_profile(sols[1], PrimeSet.of(2, 3))
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

    def test_pairs_shape_matches_naive_at_small_bound(self):
        got = {
            (s.signs, s.exponents)
            for s in deze_tijdeman_4term(2, 3, power_bound=64)
            if s.shape == SHAPE_PAIRS
        }
        assert got == brute_dt_pairs_shape(2, 3, 64)

    @pytest.mark.parametrize("p, q, bound", [(2, 3, 64), (3, 2, 200), (2, 5, 1000), (3, 7, 2500)])
    def test_product_shape_matches_naive(self, p, q, bound):
        got = {
            (s.signs, s.exponents)
            for s in deze_tijdeman_4term(p, q, power_bound=bound)
            if s.shape == SHAPE_PRODUCT
        }
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
        assert any(s.signed_values() == (16, -9, -4, -2, -1) for s in sols)

    def test_stated_maxima(self):
        sols = bajpai_bennett_5term()
        assert max(t.value for s in sols for t in s.terms) <= 3**12
        assert max(t.alpha for s in sols for t in s.terms) <= 19
        assert max(t.beta for s in sols for t in s.terms) <= 12

    def test_no_equal_magnitudes(self):
        for s in bajpai_bennett_5term():
            assert len({t.value for t in s.terms}) == 5

    def test_primitive_and_zero_sum(self):
        for s in bajpai_bennett_5term():
            assert sum(s.signed_values()) == 0
            assert gcd(*(t.value for t in s.terms)) == 1
            assert not has_vanishing_subsum(s.signed_values())

    def test_matches_naive_small(self):
        got = {tuple((t.value, t.sign) for t in s.terms) for s in bajpai_bennett_5term(4, 3)}
        assert got == naive_bb5(4, 3)
        sols = solve_pattern(interchangeable(2, 3, 5, 4, 3, 10**9, require_primitive=True))
        assert {tuple((abs(v), 1 if v > 0 else -1) for v in s.term_values) for s in sols} == got

    def test_matches_naive_below_largest_monomial(self):
        # 2^4 * 3^3 = 432 is the largest monomial; the bound drops every term above 100
        sols = solve_pattern(interchangeable(2, 3, 5, 4, 3, 100, require_primitive=True))
        got = {tuple((abs(v), 1 if v > 0 else -1) for v in s.term_values) for s in sols}
        assert got == {sol for sol in naive_bb5(4, 3) if sol[0][0] <= 100}
        assert got

    def test_deterministic_order(self):
        a = [s.signed_values() for s in bajpai_bennett_5term(6, 4)]
        b = [s.signed_values() for s in bajpai_bennett_5term(6, 4)]
        assert a == b
        assert a == sorted(a, reverse=True)

    def test_repeated_monomial_omitted(self):
        # a primitive zero sum with no vanishing subsum that repeats 1, so it is no solution
        values = (8, -4, -2, -1, -1)
        assert sum(values) == 0 and gcd(*values) == 1 and not has_vanishing_subsum(values)
        assert values not in {s.signed_values() for s in bajpai_bennett_5term()}

    @pytest.mark.parametrize("bounds", [(-1, 6), (8, -1)])
    def test_negative_bound_rejected(self, bounds):
        with pytest.raises(ValueError, match=">= 0"):
            bajpai_bennett_5term(*bounds)
