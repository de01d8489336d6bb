import multiprocessing
import os

import pytest

from apsumset import apsearch, classify
from apsumset.apsearch import find_progressions, progression
from apsumset.classify import (
    SPORADIC_5TERM,
    SweepConfig,
    family1_tuple,
    family2_tuple,
    family_nonextension,
    sweep_grid,
    theorem1_match,
)
from apsumset.sumset import SumsetParams


class TestTheorem1Match:
    @pytest.mark.parametrize("t", SPORADIC_5TERM, ids=str)
    def test_sporadic(self, t):
        assert theorem1_match(*t) == ("sporadic", None)

    @pytest.mark.parametrize("t", SPORADIC_5TERM, ids=str)
    def test_sporadic_is_a_progression(self, t):
        a, b, n, d = t
        terms = progression(SumsetParams(a, b), [n + i * d for i in range(5)])
        assert [v for v, _ in terms] == [n + i * d for i in range(5)]

    @pytest.mark.parametrize("kind, maker", [("family1", family1_tuple), ("family2", family2_tuple)])
    def test_family_parameter_recovered(self, kind, maker):
        for k in range(1, 41):
            assert theorem1_match(*maker(k)) == (kind, k)

    @pytest.mark.parametrize("maker", [family1_tuple, family2_tuple])
    def test_near_misses(self, maker):
        for k in range(1, 41):
            a, b, n, d = maker(k)
            for miss in ((a, b, n, d - 1), (a, b, n, d + 1), (a, b, n + 1, d), (a, b + 1, n, d), (a + 1, b, n, d)):
                assert theorem1_match(*miss) is None, miss

    @pytest.mark.parametrize("maker", [family1_tuple, family2_tuple])
    def test_family_refuses_k_0(self, maker):
        with pytest.raises(ValueError, match="k must be >= 1"):
            maker(0)

    @pytest.mark.parametrize(
        "t",
        [(2, 7, 7, 6), (2, 2, 2, 1), (3, 21, 6, 10), (3, 23, 7, 12), (3, 4, 7, 5), (2, 3, 5, 3), (4, 5, 5, 2)],
        ids=["b-1-not-power-of-2", "b-1-is-2^0", "b-1-over-4-not-power-of-3", "b-1-not-4k",
             "sporadic-D-off", "sporadic-D-off-2", "sporadic-a-off"],
    )
    def test_no_match(self, t):
        assert theorem1_match(*t) is None


class TestVerifyTheorem1:
    """The sweep configuration that drives the Theorem 1 check names its bad field."""

    @pytest.mark.parametrize(
        "fields, message",
        [((2, 3, 100, 2), "k must be >= 3, got 2"), ((2, 3, 1, 5), "limit must be >= 2, got 1")],
    )
    def test_config_names_bad_field(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(*fields)


class TestFamilyNonextension:
    def test_only_family1_k1_extends(self):
        rows = family_nonextension(30)
        assert [(r.family, r.k) for r in rows] == [
            (name, k) for name in ("family1", "family2") for k in range(1, 31)
        ]
        assert [(r.family, r.k) for r in rows if r.extends] == [("family1", 1)]
        first = rows[0]
        assert first.params == (2, 3) and first.next_term == 13
        assert first.witness == ((2, 2),)  # 13 = 4 + 9
        assert all(r.witness == () for r in rows[1:])

    def test_next_term_is_sixth_term(self):
        for r in family_nonextension(5):
            maker = family1_tuple if r.family == "family1" else family2_tuple
            a, b, n, d = maker(r.k)
            assert r.params == (a, b) and r.next_term == n + 5 * d

    def test_rejects_k_max_below_one(self):
        with pytest.raises(ValueError):
            family_nonextension(0)


class TestSweepGrid:
    @staticmethod
    def recorded_pool_sizes(monkeypatch, cpus, b_max, threads):
        """The worker counts sweep_grid asks of a fake pool that maps inline, on `cpus` CPUs.

        The grid is every pair b > a with b <= b_max, so it makes one job per
        a, b_max - 2 jobs, as long as no a has more than _B_SLICE of b.
        """
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, jobs, *args, **kwargs):
                return [func(job) for job in jobs]

        assert b_max - 2 <= classify._B_SLICE
        cfg = SweepConfig(max(2, b_max - 1), b_max, 10**4, 3)
        inline = sweep_grid(cfg, threads=1)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        assert sweep_grid(cfg, threads=threads) == inline
        return sizes

    @pytest.mark.parametrize(
        "b_max, threads, pool_sizes",
        [(2, 4, []), (3, 4, []), (4, 4, [2]), (5, 2, [2]), (6, 8, [4]), (5, 1, [])],
    )
    def test_pool_size(self, monkeypatch, b_max, threads, pool_sizes):
        """At most one worker per job, one a and a slice of its b; one worker runs inline."""
        assert self.recorded_pool_sizes(monkeypatch, 8, b_max, threads) == pool_sizes

    @pytest.mark.parametrize("cpus, pool_sizes", [(2, [2]), (3, [3]), (1, []), (None, [])])
    def test_pool_capped_at_cpu_count(self, monkeypatch, cpus, pool_sizes):
        """No more workers than CPUs, whatever --threads asks; an unknown count means one."""
        assert self.recorded_pool_sizes(monkeypatch, cpus, 9, 10**6) == pool_sizes

    def test_builds_no_witnesses(self, monkeypatch):
        cfg = SweepConfig(2, 10, 10**6, 5)
        expected = sweep_grid(cfg)
        assert expected

        def refuse(params, values):
            raise AssertionError(f"the sweep built the witnesses of {values}")

        monkeypatch.setattr(apsearch, "progression", refuse)
        assert sweep_grid(cfg) == expected

    def test_rows_independent_of_slice(self, monkeypatch):
        cfg = SweepConfig(4, 14, 10**6, 3)
        expected = [
            (a, b, *row)
            for a, b in cfg.pairs()
            for row in find_progressions(SumsetParams(a, b), cfg.k, cfg.term_limit)
        ]
        # a = 2 has the most b, 12: every size up to that puts a boundary elsewhere
        for size in range(1, 14):
            monkeypatch.setattr(classify, "_B_SLICE", size, raising=False)
            assert sweep_grid(cfg) == expected, size
