import multiprocessing

import pytest

from apsumset.classify import SweepConfig, family1_tuple, family2_tuple, family_nonextension, sweep_grid


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
    @pytest.mark.parametrize(
        "b_max, threads, pool_sizes",
        [(2, 4, []), (3, 4, []), (4, 4, [2]), (5, 2, [2]), (6, 8, [4]), (5, 1, [])],
    )
    def test_pool_size(self, monkeypatch, b_max, threads, pool_sizes):
        """At most one worker per (a, b) job; one worker runs inline."""
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, jobs):
                return [func(job) for job in jobs]

        cfg = SweepConfig(2, b_max, 10**4, 3)
        inline = sweep_grid(cfg, threads=1)
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        assert sweep_grid(cfg, threads=threads) == inline
        assert sizes == pool_sizes
