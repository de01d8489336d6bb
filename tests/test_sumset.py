import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apsumset.families import generate
from apsumset.numutil import ilog, power_exponent
from apsumset.sumset import (
    SumsetParams,
    enumerate_up_to,
    representations,
)

from conftest import brute_reps, brute_values


class TestParams:
    def test_valid(self):
        SumsetParams(2, 3)

    @pytest.mark.parametrize("a,b", [(3, 2), (2, 2), (1, 5), (0, 3)])
    def test_invalid(self, a, b):
        with pytest.raises(ValueError):
            SumsetParams(a, b)


class TestRepresentations:
    def test_17_in_s23(self):
        assert representations(SumsetParams(2, 3), 17) == [(3, 2), (4, 0)]

    def test_minimal_element(self):
        assert representations(SumsetParams(2, 3), 2) == [(0, 0)]

    def test_six_not_in_s23(self):
        assert representations(SumsetParams(2, 3), 6) == []

    def test_agrees_with_double_loop(self):
        rng = random.Random(3)
        pairs = [(a, b) for a in range(2, 12) for b in range(a + 1, 13)]
        for a, b in pairs:
            for n in list(range(2, 200)) + [rng.randrange(200, 10**6) for _ in range(50)]:
                assert representations(SumsetParams(a, b), n) == brute_reps(a, b, n), (a, b, n)

    def test_sorted_by_x(self):
        reps = representations(SumsetParams(2, 3), 17)
        assert reps == sorted(reps)


def division_reps(a, b, n):
    """The former membership loop: x over the a-ladder, the remainder divided down by b."""
    out = []
    ax, x = 1, 0
    while ax < n:
        y = power_exponent(n - ax, b)
        if y is not None:
            out.append((x, y))
        ax *= a
        x += 1
    return out


# dependent pairs, whose values can have several representations; the pairs
# (2, 2^k + 1), where 2^k + 2 = 2^k + 1 + b^0 = 2^0 + b; and the bases of the
# pinned prog3 family verify
ORACLE_PAIRS = [(2, 4), (2, 8), (4, 8), (3, 9), *((2, 2**k + 1) for k in range(1, 9)), (97513, 137904)]
SCALE = 10**60


def assert_matches_division_loop(a, b, n):
    reps = representations(SumsetParams(a, b), n)
    assert reps == division_reps(a, b, n), (a, b, n)
    xs = [x for x, _ in reps]
    assert xs == sorted(set(xs)), (a, b, n)  # sorted by x, no duplicates
    return reps


class TestLadderLookupOracle:
    """`representations` against the division loop it replaced, up to 10^60."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_division_loop(self, data):
        a, b = data.draw(st.sampled_from(ORACLE_PAIRS), label="pair")
        if data.draw(st.booleans(), label="constructed"):
            x = data.draw(st.integers(0, ilog(SCALE, a)), label="x")
            y = data.draw(st.integers(0, ilog(SCALE, b)), label="y")
            n = a**x + b**y + data.draw(st.sampled_from([-1, 0, 0, 1]), label="offset")
        else:
            n = data.draw(st.integers(-5, SCALE), label="n")
        assert_matches_division_loop(a, b, n)

    @pytest.mark.parametrize("a, b", ORACLE_PAIRS)
    def test_small_and_negative(self, a, b):
        for n in (-5, 0, 1, 2):
            assert_matches_division_loop(a, b, n)
        assert representations(SumsetParams(a, b), 2) == [(0, 0)]

    @pytest.mark.parametrize("a, b", ORACLE_PAIRS)
    def test_every_member_and_neighbour(self, a, b):
        """Every a^x + b^y up to 10^18 (10^60 for the prog3 bases) and both neighbours."""
        limit = SCALE if a > 1000 else 10**18
        several = 0
        ax = 1
        while ax < limit:
            by = 1
            while ax + by <= limit:
                for n in (ax + by - 1, ax + by, ax + by + 1):
                    several += len(assert_matches_division_loop(a, b, n)) > 1
                by *= b
            ax *= a
        # dependent pairs and (2, 2^k + 1) have values with several representations
        assert several > 0 or a > 1000

    def test_peak_memory_on_a_huge_value(self):
        # the 33,198 powers of 2 below this 10^10000-sized value would take
        # about 70 MiB if the a-ladder were stored
        n = 2**33197 + 3**20898
        tracemalloc.start()
        try:
            reps = representations(SumsetParams(2, 3), n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reps == [(33197, 20898)]
        assert peak < 2**20

    def test_prog3_family_terms(self):
        params, terms = generate("prog3", {"a": 97513, "b": 137904, "delta1": 1, "delta2": 1})
        for value, reps in terms:
            assert assert_matches_division_loop(params.a, params.b, value) == reps


class TestContains:
    """Membership through `representations`: an empty list means not a member."""

    def test_137(self):
        assert representations(SumsetParams(2, 3), 137) == [(7, 2)]

    def test_one_below_minimum(self):
        assert representations(SumsetParams(2, 3), 1) == []
        assert representations(SumsetParams(2, 3), 0) == []
        assert representations(SumsetParams(2, 3), -5) == []

    def test_22_78(self):
        assert representations(SumsetParams(22, 78), 22 + 78**2) == [(1, 2)]

    def test_random_constructed_members(self):
        rng = random.Random(5)
        hits = 0
        while hits < 1000:
            a = rng.randrange(2, 12)
            b = rng.randrange(a + 1, 14)
            x = rng.randrange(0, 40)
            y = rng.randrange(0, 25)
            n = a**x + b**y
            if n > 10**12:
                continue
            assert (x, y) in representations(SumsetParams(a, b), n)
            hits += 1


class TestEnumerate:
    def test_s23_up_to_10(self):
        els = enumerate_up_to(SumsetParams(2, 3), 10)
        assert [v for v, _ in els] == [2, 3, 4, 5, 7, 9, 10]

    def test_limit_two(self):
        els = enumerate_up_to(SumsetParams(2, 3), 2)
        assert els == [(2, [(0, 0)])]

    def test_s27_up_to_100(self):
        # double-loop count: x <= 6, y <= 2 gives 20 pairs, 2 duplicated values
        els = enumerate_up_to(SumsetParams(2, 7), 100)
        assert len(els) == 18

    def test_reps_complete_and_sorted(self):
        # the dependent pairs give many values two or more reps, whose order
        # comes from the enumeration's loop order alone
        for a, b in [(2, 3), (2, 4), (4, 8), (3, 9)]:
            params = SumsetParams(a, b)
            els = enumerate_up_to(params, 10**4)
            assert any(len(reps) >= 2 for _, reps in els), (a, b)
            for el in els:
                v, reps = el
                assert reps == brute_reps(a, b, v), (a, b, v)
                assert el == (v, representations(params, v)), (a, b, v)

    def test_size_bound(self):
        import math

        for a, b in [(2, 3), (2, 10), (5, 7)]:
            for limit in (10**3, 10**6):
                els = enumerate_up_to(SumsetParams(a, b), limit)
                bound = (math.log(limit, a) + 1) * (math.log(limit, b) + 1)
                assert len(els) <= bound

    def test_value_set_agrees(self):
        els = enumerate_up_to(SumsetParams(3, 11), 10**5)
        assert {v for v, _ in els} == brute_values(3, 11, 10**5)

    def test_multi_rep_element(self):
        els = dict(enumerate_up_to(SumsetParams(2, 3), 20))
        assert els[11] == [(1, 2), (3, 1)]
