import json
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apsumset import classify
from apsumset.apsearch import (
    _STORED_KEYS,
    _decode,
    find_progressions,
    find_progressions_over,
    progression,
)
from apsumset.cli import main
from apsumset.numutil import powers_below
from apsumset.sumset import SumsetParams, enumerate_up_to

from conftest import brute_values


def brute_3term(params, limit):
    """O(n^2) pairwise search over the enumerated set with hash lookup."""
    values = [v for v, _ in enumerate_up_to(params, limit)]
    vset = set(values)
    out = set()
    for i, s0 in enumerate(values):
        for s1 in values[i + 1 :]:
            d = s1 - s0
            if s1 + d <= limit and s1 + d in vset:
                out.add((s0, d))
    return sorted(out)


def brute_windows(params, k, limit):
    """Every k-term window of the sorted value set, by a pair scan with no cut.

    A window is fixed by its first two terms, so walking all value pairs and
    testing the other k-2 terms visits every k-tuple in progression.
    """
    vset = brute_values(params.a, params.b, limit)
    out = []
    for s0, s1 in combinations(sorted(vset), 2):
        d = s1 - s0
        if all(s0 + i * d in vset for i in range(2, k)):
            out.append((s0, d))
    return sorted(out)


def brute_rows(params, k, limit):
    """`brute_windows` with each window's maximal flag, by membership of both neighbours."""
    # both neighbours of a window lie below twice the limit
    around = brute_values(params.a, params.b, 2 * limit)
    return [(n, d, not (n - d in around or n + k * d in around)) for n, d in brute_windows(params, k, limit)]


def windows(rows):
    """The (N, D) of each `find_progressions` row."""
    return [(n, d) for n, d, _ in rows]


def flags_by_window(rows):
    return {(n, d): maximal for n, d, maximal in rows}


class TestFindProgressions:
    def test_s23_six_term(self):
        rows = find_progressions(SumsetParams(2, 3), 6, 10**6)
        assert windows(rows) == [(3, 2), (17, 24)]

    def test_s29_six_term(self):
        rows = find_progressions(SumsetParams(2, 9), 6, 10**6)
        assert (17, 24) in windows(rows)

    def test_tiny_window(self):
        rows = find_progressions(SumsetParams(2, 3), 3, 4)
        assert rows == [(2, 1, False)]  # not maximal: 5 = 4 + 1 lies in S_{2,3}

    def test_matches_brute_force(self):
        params = SumsetParams(2, 3)
        rows = find_progressions(params, 3, 10**4)
        assert windows(rows) == brute_3term(params, 10**4)

    def test_terms_reverify_by_membership(self):
        params = SumsetParams(2, 5)
        witnesses = dict(enumerate_up_to(params, 10**6))
        for n, d, _ in find_progressions(params, 4, 10**6):
            terms = progression(params, [n + i * d for i in range(4)])
            assert [v for v, _ in terms] == [n + i * d for i in range(4)]
            for v, reps in terms:
                assert reps == witnesses[v]

    def test_subwindow_closure(self):
        params = SumsetParams(2, 3)
        limit = 10**5
        k4 = set(windows(find_progressions(params, 4, limit)))
        k3 = set(windows(find_progressions(params, 3, limit)))
        for n, d in k4:
            assert (n, d) in k3
            assert (n + d, d) in k3

    def test_monotone_in_limit(self):
        params = SumsetParams(2, 7)
        small = set(windows(find_progressions(params, 3, 10**4)))
        large = set(windows(find_progressions(params, 3, 10**6)))
        assert small <= large

    def test_final_term_within_limit(self):
        rows = find_progressions(SumsetParams(2, 3), 5, 300)
        for n, d, _ in rows:
            assert n + 4 * d <= 300

    def test_maximal_flags(self):
        by_pair = flags_by_window(find_progressions(SumsetParams(2, 3), 5, 10**4))
        # 3,5,...,11 extends to 13 on the right; 5,...,13 extends to 3 on the left
        assert by_pair[(3, 2)] is False
        assert by_pair[(5, 2)] is False
        # 7, 13, 19, 25, 31 extends neither way in S_{2,3} (1 and 37 absent)
        assert by_pair[(7, 6)] is True

    @settings(max_examples=40, deadline=None)
    @given(
        ab=st.integers(3, 40).flatmap(lambda b: st.tuples(st.integers(2, b - 1), st.just(b))),
        k=st.integers(3, 6),
        limit=st.integers(2, 10**25),
        data=st.data(),
    )
    @example(ab=(2, 3), k=3, limit=257, data=None)  # 245, 251, 257 ends at the limit
    @example(ab=(5, 7), k=3, limit=10**25, data=None)  # values above 2^64
    # dependent bases: a middle term can have several representations
    @example(ab=(2, 4), k=3, limit=10**9, data=None)
    @example(ab=(2, 8), k=4, limit=10**12, data=None)
    @example(ab=(3, 9), k=3, limit=10**12, data=None)
    @example(ab=(4, 8), k=3, limit=10**15, data=None)
    def test_matches_brute_force_property(self, ab, k, limit, data):
        params = SumsetParams(*ab)
        expected = brute_windows(params, k, limit)
        cases = [(limit, expected)]
        if expected and data is not None:
            # the cut is exact: a limit equal to a window's final term keeps
            # that window, one less drops it
            first, step = data.draw(st.sampled_from(expected))
            final = first + (k - 1) * step
            cases += [
                (lim, [(n, d) for n, d in expected if n + (k - 1) * d <= lim])
                for lim in (final, final - 1)
                if lim >= 2
            ]
        for lim, want in cases:
            rows = find_progressions(params, k, lim)
            assert windows(rows) == want
            # both neighbours of a window lie below twice the limit
            around = brute_values(params.a, params.b, 2 * lim)
            assert [maximal for _, _, maximal in rows] == [
                not (n - d in around or n + k * d in around) for n, d in want
            ]

    @pytest.mark.parametrize("k", [3, 4])
    def test_residue_classes_match_brute_force(self, k):
        # the stored side is the 351 pair sums of the 26 powers of 3 less each of
        # the 40 doubled powers of 2: 14,040 keys, so several residue classes
        params, limit = SumsetParams(2, 3), 10**12
        assert 3**25 < limit < 3**26 and 2**39 < limit < 2**40
        assert 26 * 27 // 2 * 40 > 2 * _STORED_KEYS
        assert windows(find_progressions(params, k, limit)) == brute_windows(params, k, limit)

    def test_peak_memory_at_1e30(self):
        # one set of all 201,600 stored keys would take about 15 MiB
        tracemalloc.start()
        try:
            rows = find_progressions(SumsetParams(2, 3), 3, 10**30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 505
        assert peak < 4 * 2**20

    def test_peak_memory_of_a_sweep_slice(self):
        # a full sweep job: the 3-term windows of each b, and no set of each b's values
        tracemalloc.start()
        try:
            find_progressions_over(2, list(range(3, 3 + classify._B_SLICE)), 5, 10**30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            find_progressions(SumsetParams(2, 3), 2, 100)
        with pytest.raises(ValueError):
            find_progressions(SumsetParams(2, 3), 3, 1)


# every base pair with a <= 6 and b <= 60
SMALL_PAIRS = [(a, b) for a in range(2, 7) for b in range(a + 1, 61)]


class TestJoinOracle:
    """The join against the pair scan `brute_windows`."""

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_every_small_pair(self, k):
        # the dependent pairs, whose terms can have several representations, are among them
        assert {(2, 4), (2, 8), (3, 9), (4, 8)} <= set(SMALL_PAIRS)
        for a, b in SMALL_PAIRS:
            params = SumsetParams(a, b)
            assert windows(find_progressions(params, k, 10**5)) == brute_windows(params, k, 10**5), (a, b)

    @settings(max_examples=25, deadline=None)
    @given(
        ab=st.integers(2, 8).flatmap(
            lambda a: st.tuples(st.just(a), st.lists(st.integers(a + 1, 80), min_size=2, max_size=5, unique=True))
        ),
        k=st.integers(3, 5),
        limit=st.integers(2, 10**12),
    )
    @example(ab=(2, [9, 3, 4, 8]), k=3, limit=10**9)
    def test_shared_a_matches_brute_force(self, ab, k, limit):
        a, bs = ab
        for b, rows in zip(bs, find_progressions_over(a, bs, k, limit), strict=True):
            params = SumsetParams(a, b)
            want = brute_windows(params, k, limit)
            assert windows(rows) == want
            around = brute_values(params.a, params.b, 2 * limit)
            assert [maximal for _, _, maximal in rows] == [
                not (n - d in around or n + k * d in around) for n, d in want
            ]

    @pytest.mark.parametrize("a, b", [(2, 3), (2, 33), (2, 5000), (3, 1000)])
    def test_one_pair_split_matches_shared(self, a, b):
        # lopsided ladders included: 100 powers of 2 against 9 of 5000 at 10^30
        shared, _ = find_progressions_over(a, [b, b + 1], 3, 10**30)
        assert find_progressions(SumsetParams(a, b), 3, 10**30) == shared

    def test_no_b(self):
        assert find_progressions_over(2, [], 3, 100) == []


class TestDecode:
    """A pair sum of one base's ladder gives back its own pair, read off the ladder."""

    # below 2 every ladder is [1]; below 3 base 2's is [1, 2], so 2 = 1 + 1 is itself a power
    @pytest.mark.parametrize("limit", [2, 3, 10**30])
    def test_every_pair_sum(self, limit):
        for base in range(2, 65):
            ladder = powers_below(base, limit)
            for i, p in enumerate(ladder):
                for q in ladder[i:]:
                    assert _decode(ladder, p + q) == (p, q), (base, p, q)

    def test_base_2_doubled_inside_and_past_the_top(self):
        ladder = powers_below(2, 10**30)
        assert ladder[-1] == 2**99
        # 2 * 2^98 is the ladder's top, 2 * 2^99 lies above it
        assert _decode(ladder, 2**99) == (2**98, 2**98)
        assert _decode(ladder, 2**100) == (2**99, 2**99)

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.integers(2, 10**6),
        exponents=st.lists(st.integers(0, 200), min_size=3, max_size=3).map(sorted),
    )
    @example(base=2, exponents=[7, 7, 7])
    @example(base=2, exponents=[6, 6, 7])
    @example(base=3, exponents=[0, 0, 0])
    def test_pair_of_any_ladder(self, base, exponents):
        i, j, top = exponents
        ladder = powers_below(base, base**top + 1)
        assert _decode(ladder, base**i + base**j) == (base**i, base**j)


# the dependent pairs, whose terms can have several representations, and
# pairs of the families; S_{2,3} has the 6-term windows (3, 2) and (17, 24)
CHAIN_PAIRS = [(2, 4), (2, 8), (4, 8), (3, 9), (2, 5), (2, 9), (2, 17), (3, 13), (2, 3)]


class TestChainRule:
    """A k-term window is k - 2 overlapping 3-term windows of one D, and its
    maximal flag reads the 3-term windows on either side of it below the
    limit, and `representations` above it."""

    def test_final_term_at_limit(self):
        params = SumsetParams(2, 3)
        assert find_progressions(params, 6, 13) == [(3, 2, True)]  # 3, 5, ..., 13
        assert find_progressions(params, 6, 12) == []

    def test_after_at_limit_and_above(self):
        params = SumsetParams(2, 3)
        # 2, 3, 4 extends to 5 = 4 + 1, read off the window 3, 4, 5 at limit 5
        assert find_progressions(params, 3, 5) == [(2, 1, False), (3, 1, False)]
        # and by membership of 5 when the limit is one below it
        assert find_progressions(params, 3, 4) == [(2, 1, False)]
        # 3, 5, ..., 13 does not extend to 15, tested either way
        for limit in (15, 14):
            assert flags_by_window(find_progressions(params, 6, limit)) == {(3, 2): True}

    def test_before_is_one(self):
        # 3, 5, 7, 9 in S_{2,5}: 1 = 3 - 2 is below the sumset and 11 is not in it
        params = SumsetParams(2, 5)
        assert flags_by_window(find_progressions(params, 4, 9)) == {(3, 2): True}
        assert (3, 2, True) in find_progressions(params, 4, 10**6)

    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    @pytest.mark.parametrize("a, b", CHAIN_PAIRS)
    def test_matches_brute_force_at_each_edge(self, a, b, k):
        params = SumsetParams(a, b)
        every = brute_rows(params, k, 10**6)
        limits = {10**6}
        for n, d, _ in every:
            final = n + (k - 1) * d
            # the window ends at the limit; its next term is one above it, or at it
            limits |= {final, final + d - 1, final + d}
        bs = sorted({a + 1, b, b + 1})
        for limit in sorted(lim for lim in limits if lim <= 10**6):
            want = [row for row in every if row[0] + (k - 1) * row[1] <= limit]
            assert find_progressions(params, k, limit) == want, limit
            assert find_progressions_over(a, bs, k, limit)[bs.index(b)] == want, limit


class TestExtend:
    """One-term extensions, read off the maximal flags and the longer search."""

    def test_forward_five_to_six(self):
        # 3, 5, ..., 11 ends at the limit; the neighbour 13 lies above it
        params = SumsetParams(2, 3)
        five = find_progressions(params, 5, 11)
        assert flags_by_window(five)[(3, 2)] is False
        six = find_progressions(params, 6, 13)
        assert windows(six) == [(3, 2)]  # its sixth term is 3 + 5 * 2 = 13

    def test_forward_six_stops(self):
        (n, d, maximal), *_ = find_progressions(SumsetParams(2, 3), 6, 10**6)
        assert (n, d) == (3, 2)
        assert maximal is True  # 1 and 15 are not in S_{2,3}

    def test_forward_17_24_stops_at_161(self):
        # 17, ..., 137 ends at the limit, so 161 is tested above it
        assert flags_by_window(find_progressions(SumsetParams(2, 3), 6, 137))[(17, 24)] is True

    def test_backward(self):
        params = SumsetParams(2, 3)
        five = find_progressions(params, 5, 100)
        assert flags_by_window(five)[(5, 2)] is False
        six = find_progressions(params, 6, 100)
        assert windows(six) == [(3, 2)]  # 3, 5, 7, 9, 11, 13


class TestProgression:
    def test_builds_terms_with_witnesses(self):
        terms = progression(SumsetParams(2, 3), [5, 7, 9, 11])
        assert [v for v, _ in terms] == [5, 7, 9, 11]
        assert terms[3] == (11, [(1, 2), (3, 1)])  # 11 = 2 + 9 = 8 + 3

    @pytest.mark.parametrize(
        "values",
        [[3, 5, 9], [5, 7, 10], [3, 3, 3], [7, 5, 3]],
        ids=["broken-step", "broken-last-step", "zero-step", "negative-step"],
    )
    def test_refuses_non_progression(self, values):
        with pytest.raises(ValueError, match="progression|not positive"):
            progression(SumsetParams(2, 3), values)

    def test_refuses_non_member_term(self):
        # 2, 4, 6 is in progression, but 6 is not in S_{2,3}
        with pytest.raises(ValueError, match="6 is not in"):
            progression(SumsetParams(2, 3), [2, 4, 6])


def count3_rows(capsys, a, b, limits):
    """The rows of the `count3` command: one per limit, then the stabilized flags."""
    assert main(["count3", str(a), str(b), "--limits", ",".join(map(str, limits))]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


class TestCount3:
    def test_s27_stabilizes_at_22(self, capsys):
        *rows, summary = count3_rows(capsys, 2, 7, [10**6, 10**8])
        assert [row["windows"] for row in rows] == [22, 22]
        assert summary["stabilized_windows"] is True

    def test_s29_strictly_increasing(self, capsys):
        low, high, summary = count3_rows(capsys, 2, 9, [10**6, 10**9])
        assert low["windows"] < high["windows"]
        assert summary["stabilized_windows"] is False

    def test_single_limit_not_stabilized(self, capsys):
        _, summary = count3_rows(capsys, 2, 7, [10**8])
        assert summary == {"stabilized_windows": False, "stabilized_maximal": False}

    @pytest.mark.parametrize(
        "a, b, limits",
        [
            (2, 3, [4, 100, 10**4, 10**8, 10**12]),
            (2, 7, [10, 10**6, 10**8, 10**20]),
            (3, 5, [2, 10**3, 10**9, 2**64 + 3]),
        ],
    )
    def test_matches_per_limit_search(self, capsys, a, b, limits):
        params = SumsetParams(a, b)
        *rows, _ = count3_rows(capsys, a, b, limits)
        assert [row["limit"] for row in rows] == [str(lim) for lim in limits]
        for lim, row in zip(limits, rows):
            single = find_progressions(params, 3, lim)
            assert row["windows"] == len(single)
            assert row["maximal"] == sum(flag for _, _, flag in single)
