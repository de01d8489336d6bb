import random

import pytest

from apsumset.sumset import (
    Representation,
    SumsetParams,
    enumerate_up_to,
    representations,
    value_set,
)

from conftest import brute_reps


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
        assert [e.value for e in els] == [2, 3, 4, 5, 7, 9, 10]

    def test_limit_two(self):
        els = enumerate_up_to(SumsetParams(2, 3), 2)
        assert [e.value for e in els] == [2]
        assert els[0].reps == (Representation(0, 0),)

    def test_s27_up_to_100(self):
        # double-loop count: x <= 6, y <= 2 gives 20 pairs, 2 duplicated values
        els = enumerate_up_to(SumsetParams(2, 7), 100)
        assert len(els) == 18

    def test_reps_complete_and_sorted(self):
        for el in enumerate_up_to(SumsetParams(2, 3), 10**4):
            assert list(el.reps) == brute_reps(2, 3, el.value)

    def test_size_bound(self):
        import math

        for a, b in [(2, 3), (2, 10), (5, 7)]:
            for limit in (10**3, 10**6):
                els = enumerate_up_to(SumsetParams(a, b), limit)
                bound = (math.log(limit, a) + 1) * (math.log(limit, b) + 1)
                assert len(els) <= bound

    def test_value_set_agrees(self):
        els = enumerate_up_to(SumsetParams(3, 11), 10**5)
        assert {e.value for e in els} == value_set(SumsetParams(3, 11), 10**5)

    def test_multi_rep_element(self):
        els = {e.value: e for e in enumerate_up_to(SumsetParams(2, 3), 20)}
        assert els[11].reps == (Representation(1, 2), Representation(3, 1))
