import multiprocessing
import os
import warnings

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
        """The processes that compute a sweep on `cpus` CPUs: the children it starts plus the caller.

        The grid is every pair b > a with b <= b_max, so it makes one job per
        a, b_max - 2 jobs, as long as no a has more than _B_SLICE of b.  An
        inline sweep starts no child and records nothing.
        """
        children = []
        real_process = multiprocessing.Process

        def recording_process(*args, **kwargs):
            children.append(real_process(*args, **kwargs))
            return children[-1]

        assert b_max - 2 <= classify._B_SLICE
        cfg = SweepConfig(max(2, b_max - 1), b_max, 10**4, 3)
        inline = sweep_grid(cfg, threads=1)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(multiprocessing, "Process", recording_process)
        assert sweep_grid(cfg, threads=threads) == inline
        return [len(children) + 1] if children else []

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

    @pytest.mark.parametrize("size", [1, 3, 32])
    def test_two_processes_match_inline(self, monkeypatch, size):
        """The caller and one child, drawing jobs from the counter, find the inline rows."""
        monkeypatch.setattr(classify, "_B_SLICE", size)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = SweepConfig(4, 40, 10**6, 3)
        inline = sweep_grid(cfg, threads=1)
        assert inline
        assert sweep_grid(cfg, threads=2) == inline
        assert multiprocessing.active_children() == []

    def test_forks_with_no_thread_running(self, monkeypatch):
        """Python 3.12+ warns when a process forks while threads run; the sweep's forks draw no warning.

        The warning is recorded, not made an error: CPython drops it when a
        filter turns it into an exception.
        """
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep_grid(SweepConfig(4, 40, 10**6, 3), threads=2)
        assert [str(w.message) for w in caught] == []

    @staticmethod
    def failing_in(monkeypatch, where, fail):
        """Make every job run `fail` in the caller or in a child, the other's jobs running as usual.

        A caller's job waits until a child has taken a job, so the child gets one
        however fast the caller is.  The child learns of its failure by fork.
        """
        caller = os.getpid()
        child_started = multiprocessing.Event()
        real_slice = classify._sweep_slice

        def job(args):
            in_caller = os.getpid() == caller
            if not in_caller:
                child_started.set()
            elif where == "child":
                assert child_started.wait(30)
            if in_caller == (where == "caller"):
                fail()
            return real_slice(args)

        monkeypatch.setattr(classify, "_sweep_slice", job)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    @pytest.mark.parametrize("where", ["child", "caller"])
    def test_failed_job_raises_in_caller(self, monkeypatch, where):
        """A job's exception reaches the caller with its type and message, and no child outlives it."""

        def fail():
            raise LookupError(f"a job failed in the {where}")

        self.failing_in(monkeypatch, where, fail)
        with pytest.raises(LookupError, match=f"failed in the {where}") as raised:
            sweep_grid(SweepConfig(4, 40, 10**6, 3), threads=2)
        assert raised.type is LookupError
        assert multiprocessing.active_children() == []

    def test_child_that_dies_fails_the_sweep(self, monkeypatch):
        """A child that exits without sending its rows fails the sweep; it does not hang it."""
        self.failing_in(monkeypatch, "child", lambda: os._exit(3))
        with pytest.raises(ChildProcessError, match="code 3"):
            sweep_grid(SweepConfig(4, 40, 10**6, 3), threads=2)
        assert multiprocessing.active_children() == []

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
